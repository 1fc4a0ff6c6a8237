"""Assembly, solvers, and error norms for the model problem.

Discretizes

    <d u, d v> + <delta u, delta v> + <u, v> = <f, v>   for all v

over the explicit kernel basis of the constrained broken space.  The
bilinear form is evaluated exactly (cell Grams come from the rational
element tables); only the load vector and the error integrals use
quadrature.

Two independent solution paths are provided.  The primary path reduces
to the kernel basis (A = Phi^T A_cell Phi) and runs conjugate gradients
with one additive preconditioner of three terms,

    M r = S r + P A_c^-1 P^T r + C E K E^T C^T r,    A_c = P^T A P,

built in ``solve_system`` from A and the basis in O(nnz):

    S   vertex-patch block Jacobi: one block per anchor vertex (the basis
        functions sharing ``GlobalBasis.anchor``), inverted as one batched
        stack and applied as one sparse matrix;
    P   kernel coordinates of the cellwise interpolants Pi of the
        conforming P1 vector fields with zero normal trace on the same
        mesh (both components at an interior vertex, the tangent at a
        straight boundary vertex, none at a corner).  The shape space
        does not hold these fields, but the Whitney test forms lie in the
        span of the DOF test forms, so Pi keeps the Whitney functionals.
        Their patch sums vanish for a conforming field, so Pi lies in
        null(B).  For hat_s e_x on a cell with area |T|, g = grad hat
        and J(a, b) = (-b, a), Whitney row r is -|T|/3 (g_r + g_s)_x
        (div) and |T|/3 J(g_r + g_s)_x (rot).  With w these values, Phi
        P = Pi holds when each fan-difference function takes the sum of
        w over its fan up to its first cell: a cumulative sum along each
        fan, with no solve.  A_c couples only the vertices of a common
        cell; its other entries cancel exactly and are dropped.
    C E the exact correction on Z, the fields of null(B) that are
        constant on each cell (shape slots 0 and 1, put there by E), of
        dimension cells - 1.  d and delta vanish on Z, so A there is the
        bare L2 mass D = diag(|T|), which S and P cannot capture: without
        this term the condition number grows like h^-2.  With B_c the
        constraints on the constants (without div row 0, which depends
        on the others) and L = B_c D^-1 B_c^T,
        K = D^-1 - D^-1 B_c^T L^-1 B_c D^-1, and C E is the same fan sum
        of the constants' Whitney values, so Phi C E y = E y on null(B_c).

A_c and L are factored once by ``splu``; a singular L raises ValueError.

The oracle path never forms a basis: it solves the saddle-point system

    [ A_cell  B^T ] [x]   [b_cell]
    [   B      0  ] [y] = [  0   ]

by eliminating the cells.  A_cell is block diagonal with one SPD 6x6
Gram per cell, so with A_cell^-1 = W W^T (W = blockdiag(L^-T), L the
Cholesky factor of each template Gram, one batched call) and C = B W,
the multipliers solve the SPD system

    S y = C W^T b_cell,    S = B A_cell^-1 B^T = C C^T,

and then x = W (W^T b_cell - C^T y).  S has the pattern of the vertex
graph and is factored once by ``splu`` with minimum degree on its
symmetric pattern.  S is SPD only when B has full row rank, so only the
rows kept by the rank certificate (``ConstraintSystem.kept_rows``: the
first of each set of exactly equal rows) enter it; the multipliers of
the dropped rows are zero, and a B that the certificate rejects raises
its ValueError before any factorization.  Both paths must produce the
same broken field, which is the cross-check used by the verification
suite.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import SmoothField, as_callback
from .globalspace import (
    CATEGORIES,
    ROT_CELL,
    ConstraintSystem,
    GlobalBasis,
    ProductSpace,
    build_constraints,
    build_global_basis,
    build_product_space,
    constraint_layout,
    global_interpolate,
)
from .mesh import DIAGONAL, Triangulation, generate_square_mesh

__all__ = [
    "AssembledSystem",
    "SolveResult",
    "OracleResult",
    "StudyRow",
    "cell_gram_matrix",
    "cell_load_vector",
    "assemble",
    "check_tol",
    "solve_cg",
    "coarse_prolongation",
    "two_level_preconditioner",
    "solve_system",
    "solve_oracle",
    "error_norms",
    "broken_energy_product",
    "interpolation_study",
    "solver_study",
    "fit_rate",
]

_SLOT = np.arange(6)


def cell_gram_matrix(prod: ProductSpace) -> sp.csr_matrix:
    """Block-diagonal broken Gram <d.,d.> + <delta.,delta.> + <.,.>."""
    return prod.block_diagonal(prod.gram).tocsr()


def cell_load_vector(
    prod: ProductSpace, field: SmoothField, quad_order: int = 6
) -> np.ndarray:
    """Per-cell load <f, mu_i>_T against the shape basis, as one sparse product."""
    nodes = prod.nodes(quad_order)
    fv = np.asarray(field.f(nodes.reshape(-1, 2))).reshape(len(nodes), -1)  # (cell, node * x)
    return (prod.by_template(fv) @ prod.derived(_load_table, quad_order)).ravel()


def _load_table(prod: ProductSpace, order: int) -> np.ndarray:
    """The weighted shape values, rows (template, node, x), columns the shape index."""
    tab = prod.tables(order)
    table = (tab["weights"][:, None, :, None] * tab["val"]).transpose(0, 2, 3, 1)
    return table.reshape(-1, 6)


@dataclass
class AssembledSystem:
    prod: ProductSpace
    basis: GlobalBasis
    A: sp.csr_matrix
    b: np.ndarray
    A_cell: sp.csr_matrix
    b_cell: np.ndarray
    quad_order: int

    @property
    def dofs(self) -> int:
        return len(self.basis)


def assemble(
    tri: Triangulation,
    field: SmoothField,
    quad_order: int = 6,
    prod: ProductSpace | None = None,
    basis: GlobalBasis | None = None,
) -> AssembledSystem:
    if prod is None:
        prod = build_product_space(tri)
    if basis is None:
        basis = build_global_basis(tri, prod)
    A_cell = cell_gram_matrix(prod)
    b_cell = cell_load_vector(prod, field, quad_order)
    Phi = basis.Phi
    A = (Phi.T @ (A_cell @ Phi)).tocsr()
    A.sum_duplicates()
    b = Phi.T @ b_cell
    return AssembledSystem(prod, basis, A, b, A_cell, b_cell, quad_order)


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError naming ``name`` unless tol is positive and finite.

    A tolerance at or below zero can never be met, so CG would run until
    rounding breaks it down.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def solve_cg(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-10,
    maxiter: int | None = None,
    callback=None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, dict]:
    """Preconditioned conjugate gradients with residual history.

    ``precondition(r)`` returns the preconditioned residual; without it
    CG scales by the diagonal of A (Jacobi).  CG stops on the true
    residual: when the recursively updated residual reaches ``tol``,
    b - A x is recomputed and accepted only if it is within ``tol`` too;
    otherwise CG continues from the recomputed residual under the same
    iteration cap.  ``info["true_rel_residual"]`` is the final
    ||b - A x|| / ||b||.  A CG that does not converge within the cap
    raises RuntimeError with the final relative residual in the message.
    ``callback(x)`` is invoked with the current iterate after every step.
    A ``tol`` that is not positive and finite raises ValueError.
    """
    check_tol(tol)
    n = b.shape[0]
    if maxiter is None:
        # the three-term preconditioner needs about 50 iterations on the
        # square meshes at tol 1e-10 and 60 on jittered ones; Jacobi
        # alone grows like h^-1 (about 64*sqrt(n)).  100*sqrt(n) leaves
        # headroom for both
        maxiter = max(n, int(100.0 * np.sqrt(n)))
    bnorm = float(np.linalg.norm(b))
    info = {"method": "pcg", "converged": True, "iterations": 0}
    if bnorm == 0.0:
        info["residuals"] = np.zeros(1)
        info["true_rel_residual"] = 0.0
        return np.zeros(n), info
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise ValueError("system diagonal has non-positive entries; matrix is not SPD")
    if precondition is None:

        def precondition(r):
            return r / diag

    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    residuals = [bnorm]
    converged = False
    it = 0
    while it < maxiter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise ValueError("conjugate gradients hit a non-positive curvature direction")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        if callback is not None:
            callback(x.copy())
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol * bnorm:
            r = b - A @ x
            rnorm = float(np.linalg.norm(r))
            if rnorm <= tol * bnorm:
                residuals.append(rnorm)
                info["true_rel_residual"] = rnorm / bnorm
                converged = True
                break
        residuals.append(rnorm)
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    if not converged:
        raise RuntimeError(
            f"conjugate gradients did not converge in {it} iterations "
            f"(relative residual {residuals[-1] / bnorm:.3e}, n={n})"
        )
    info["iterations"] = it
    info["residuals"] = np.array(residuals)
    return x, info


def _coarse_components(tri: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """The free components of the P1 coarse space at each vertex.

    Returns (directions, columns), of shapes (nv, 2, 2) and (nv, 2): the
    k-th free component of vertex a is the unit vector directions[a, k],
    with coarse column columns[a, k], and -1 marks a component that is
    not free.  An interior vertex keeps x and y.  A boundary vertex's
    fan runs from the cell whose entry edge (a, p) is on the boundary to
    the cell whose exit edge (q, a) is, so p and q are its two boundary
    neighbours.  When they are collinear with a, decided on exact
    coordinates, a keeps the unit tangent along p - q (counterclockwise
    around the domain); a corner keeps none, so every coarse field has
    zero normal trace.  Columns are numbered by vertex, then component.
    """
    nv = len(tri.vertices)
    cells = np.array(tri.cells, dtype=np.intp).reshape(-1, 3)
    directions = np.zeros((nv, 2, 2))
    directions[:, 0, 0] = directions[:, 1, 1] = 1.0
    free = np.zeros((nv, 2), dtype=bool)
    free[tri.interior_vertices] = True
    vertex = np.flatnonzero(~free[:, 0])

    def turn(fan_position: np.ndarray, k: int) -> np.ndarray:
        """The vertex k slots after ``vertex`` in the cells at these fan positions."""
        around = cells[tri.fan_cells[fan_position]]
        slot = np.argmax(around == vertex[:, None], axis=1)
        return around[np.arange(len(vertex)), (slot + k) % 3]

    p, q = turn(tri.fan_start[vertex], 1), turn(tri.fan_start[vertex + 1] - 1, 2)
    num, den = tri.scaled_points(np.column_stack([vertex, q, p]))
    u, v = num[:, 1] - num[:, 0], num[:, 2] - num[:, 0]
    straight = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] == 0
    tangent = (num[straight, 2] - num[straight, 1]).astype(float)
    directions[vertex[straight], 0] = tangent / np.linalg.norm(tangent, axis=1)[:, None]
    free[vertex[straight], 0] = True
    columns = np.full((nv, 2), -1, dtype=np.intp)
    columns[free] = np.arange(np.count_nonzero(free))
    return directions, columns


def _p1_whitney(prod: ProductSpace) -> np.ndarray:
    """Whitney values of the P1 fields on every template, shape (templates, 6, 6).

    Row r of block t is Whitney row r of template t (rot slots 0..2, then
    div slots 0..2), column 2s + x the field mu = hat_s e_x, hat_s the
    barycentric coordinate of slot s.  With g = grad hat, mu has constant
    d mu = -(g_s)_y and Green delta mu = -(g_s)_x, and each hat integrates
    to |T|/3, so with J(a, b) = (-b, a)

        rot row r   <d mu, hat_r> - <mu, delta(hat_r dx^12)> =  |T|/3 J(g_r + g_s)_x
        div row r   <delta mu, hat_r> - <mu, d hat_r>         = -|T|/3 (g_r + g_s)_x

    computed from the float vertices ``prod.vertices`` alone.
    """
    v = prod.vertices
    opposite = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
    area2 = opposite[:, 1, 0] * opposite[:, 2, 1] - opposite[:, 1, 1] * opposite[:, 2, 0]
    # (template, slot, x): grad hat_s, J of the opposite edge over the signed 2|T|
    grad = np.stack([-opposite[:, :, 1], opposite[:, :, 0]], axis=2) / area2[:, None, None]
    # (template, r, s, x): |T|/3 (g_r + g_s)
    pair = (np.abs(area2) / 6.0)[:, None, None, None] * (grad[:, :, None] + grad[:, None])
    rot = np.stack([-pair[..., 1], pair[..., 0]], axis=3)
    return np.concatenate([rot, -pair], axis=1).reshape(-1, 6, 6)


def _cellwise(prod: ProductSpace, blocks: np.ndarray) -> sp.csr_matrix:
    """Per-template blocks with P1 columns 2s + x as a (dim, coarse) matrix.

    Cell c takes the block of its template; the coarse column of the
    k-th free component of the vertex at slot s gets the block's columns
    2s, 2s + 1 combined along that component's direction.
    """
    directions, columns = _coarse_components(prod.tri)
    nc = len(prod.tri.cells)
    cells = np.array(prod.tri.cells, dtype=np.intp).reshape(nc, 3)
    local = blocks.reshape(-1, 6, 3, 2)[prod.template_index]  # (cell, row, slot, x)
    dirs = directions[cells]  # (cell, slot, k, x)
    # (cell, row, slot, k): the sum over x written out, about 3x faster than einsum
    values = local[..., 0, None] * dirs[:, None, :, :, 0]
    values += local[..., 1, None] * dirs[:, None, :, :, 1]
    rows = 6 * np.arange(nc)[:, None, None, None] + _SLOT[:, None, None]
    rows, cols = np.broadcast_arrays(rows, columns[cells][:, None])
    keep = (cols >= 0) & (values != 0)
    return sp.csr_matrix(
        (values[keep], (rows[keep], cols[keep])),
        shape=(prod.dim, int(columns.max()) + 1),
    )


def _kernel_coordinates(basis: GlobalBasis, w: sp.spmatrix) -> sp.csr_matrix:
    """Kernel coordinates of fields of null(B) from their Whitney values.

    Column k of w holds the Whitney values of one field, row 6c + r for
    Whitney row r of cell c.  Such a field has, on a fan-difference
    function, the sum of w over its fan up to the function's first cell,
    and on a ROT_CELL function its own w.  So the coordinates are a
    segmented cumulative sum of the gathered Whitney values over each run
    of functions with equal category and anchor (a ROT_CELL function is a
    run of its own), taken as one sparse product.
    """
    n = len(basis)
    cat, anchor = basis.category, basis.anchor
    first = cat == CATEGORIES.index(ROT_CELL)
    first[0] = True
    first[1:] |= (cat[1:] != cat[:-1]) | (anchor[1:] != anchor[:-1])
    start = np.flatnonzero(first)[np.cumsum(first) - 1]
    # row j of the prefix picks the first (cell, dual column) of functions start[j]..j
    length = np.arange(n) - start + 1
    offset = np.cumsum(length) - length
    members = np.arange(offset[-1] + length[-1]) - np.repeat(offset - start, length)
    picks = 6 * basis.cells[members, 0] + basis.columns[members, 0]
    indptr = np.append(offset, len(members))
    prefix = sp.csr_matrix((np.ones(len(members)), picks, indptr), shape=(n, basis.dim))
    return prefix @ w


def _drop_residue(M: sp.csr_matrix) -> sp.csr_matrix:
    """M without its entries at or below 1e-12 of its largest, in place.

    Used where sums cancel exactly: rounding leaves about 1e-15 of the
    largest entry there, which would fill a matrix and its factors.
    """
    M.data[np.abs(M.data) <= 1e-12 * np.abs(M.data).max(initial=0.0)] = 0.0
    M.eliminate_zeros()
    return M


def coarse_prolongation(basis: GlobalBasis) -> sp.csr_matrix:
    """P, the kernel coordinates of the coarse P1 fields: Phi P = Pi.

    Once a fan has passed every cell that a field touches, the field's
    sum in ``_kernel_coordinates`` is zero exactly, so its rounding
    residue is dropped.
    """
    prod = basis.prod
    return _drop_residue(_kernel_coordinates(basis, _cellwise(prod, _p1_whitney(prod))))


def _cellwise_constants(basis: GlobalBasis) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """(C E, B_c, d) for the cellwise constant fields, column 2c + x for e_x on cell c.

    E puts them into shape slots 0 and 1 (the unscaled dx and dy).  Their
    Whitney values are the sums over s of ``_p1_whitney``'s columns
    2s + x, since the hats sum to one.  C E is their
    ``_kernel_coordinates``, so Phi C E y = E y for every y in null(B_c).
    Each column touches one cell, so every entry of C E is one Whitney
    value, with no cancellation.  B_c holds the same values in the rows of
    ``constraint_layout`` without div row 0: on each cell the div rows
    sum to zero on constants, so on a connected mesh div row 0 depends on
    the others.  d and delta vanish on a constant, so A_cell on these
    columns is diag(d), d = |T| from ``prod.gram[:, 0, 0]``.
    """
    prod = basis.prod
    tri = prod.tri
    nc = len(tri.cells)
    tix = prod.template_index
    # (cell, Whitney row, x)
    values = _p1_whitney(prod).reshape(-1, 6, 3, 2).sum(axis=2)[tix]
    column = 2 * np.arange(nc)[:, None] + np.arange(2)
    rows = 6 * np.arange(nc)[:, None, None] + _SLOT[:, None]
    rows, cols = np.broadcast_arrays(rows, column[:, None])
    w = sp.csr_matrix((values.ravel(), (rows.ravel(), cols.ravel())), shape=(prod.dim, 2 * nc))
    CE = _kernel_coordinates(basis, w)
    rows, cols = np.broadcast_arrays(constraint_layout(tri)[..., None], column[:, None, None])
    keep = rows > 0
    Bc = sp.csr_matrix(
        (values.reshape(nc, 2, 3, 2)[keep], (rows[keep] - 1, cols[keep])),
        shape=(len(tri.vertices) + len(tri.interior_vertices) - 1, 2 * nc),
    )
    d = np.repeat(prod.gram[tix, 0, 0], 2)
    return CE, Bc, d


def _constant_correction(basis: GlobalBasis) -> Callable[[np.ndarray], np.ndarray]:
    """r -> C E K (C E)^T r, the exact correction on the cellwise constants of null(B).

    K = D^-1 - D^-1 B_c^T L^-1 B_c D^-1 with D = diag(d) and L = B_c D^-1
    B_c^T (``_cellwise_constants``) is Y (Y^T D Y)^-1 Y^T for any basis Y
    of null(B_c), and (C E Y)^T A (C E Y) = Y^T D Y.  L is factored once;
    it is singular when B_c has more than one dependent row, which raises
    ValueError.
    """
    CE, Bc, d = _cellwise_constants(basis)
    try:
        lu = _factor_spd(Bc @ sp.diags(1.0 / d) @ Bc.T)
        pivots = lu.U.diagonal()
        singular = pivots.min() <= 1e-10 * pivots.max()
    except RuntimeError:  # an exactly zero pivot
        singular = True
    if singular:
        raise ValueError(
            "the cellwise-constant constraints B_c D^-1 B_c^T are singular: B on the "
            "cellwise constants has more than one dependent row"
        )

    def correct(r: np.ndarray) -> np.ndarray:
        y = (CE.T @ r) / d
        return CE @ (y - (Bc.T @ lu.solve(Bc @ y)) / d)

    return correct


def _block_jacobi(A: sp.csr_matrix, anchor: np.ndarray) -> sp.csr_matrix:
    """Inverse of the block diagonal of A, one block per anchor vertex.

    The blocks are gathered from A's CSR arrays into one padded stack
    (identity on the padding) and inverted by one batched call; row j of
    the result is row j of its block's inverse, over the block's members.
    """
    n = A.shape[0]
    order = np.argsort(anchor, kind="stable")
    _, begin, size = np.unique(anchor[order], return_index=True, return_counts=True)
    block = np.empty(n, dtype=np.int32)
    pos = np.empty(n, dtype=np.int32)
    block[order] = np.repeat(np.arange(len(size), dtype=np.int32), size)
    pos[order] = np.arange(n) - np.repeat(begin, size)
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
    inside = block[rows] == block[A.indices]
    rows, cols = rows[inside], A.indices[inside]
    s = int(size.max())
    stack = np.zeros((len(size), s, s))
    stack[block[rows], pos[rows], pos[cols]] = A.data[inside]
    del rows, cols, inside
    pad = np.arange(s) >= size[:, None]
    stack[:, np.arange(s), np.arange(s)] += pad
    members = np.zeros((len(size), s), dtype=np.int32)
    members[block, pos] = np.arange(n)
    real = ~pad[block]  # (function, member)
    data = np.linalg.inv(stack)[block, pos][real]
    indptr = np.concatenate([[0], np.cumsum(size[block])])
    return sp.csr_matrix((data, members[block][real], indptr), shape=(n, n))


def _factor_spd(M: sp.spmatrix) -> spla.SuperLU:
    """``splu`` of a sparse SPD matrix: minimum degree on its symmetric
    pattern, diagonal pivots preferred."""
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def two_level_preconditioner(
    A: sp.csr_matrix, basis: GlobalBasis
) -> Callable[[np.ndarray], np.ndarray]:
    """r -> S r + P A_c^-1 P^T r + C E K (C E)^T r: block Jacobi, the P1 coarse
    correction and the exact correction on the cellwise constants."""
    smoother = _block_jacobi(A, basis.anchor)
    P = coarse_prolongation(basis)
    # A_c = Pi^T A_cell Pi couples only vertices of a common cell; the
    # other entries of P^T A P cancel exactly
    lu = _factor_spd(_drop_residue(P.T @ A @ P))
    constants = _constant_correction(basis)

    def precondition(r: np.ndarray) -> np.ndarray:
        return smoother @ r + P @ lu.solve(P.T @ r) + constants(r)

    return precondition


@dataclass
class SolveResult:
    u: np.ndarray
    u_cell: np.ndarray
    iterations: int
    converged: bool
    method: str
    residuals: np.ndarray
    true_rel_residual: float


def solve_system(
    system: AssembledSystem, tol: float = 1e-10, maxiter: int | None = None
) -> SolveResult:
    """CG on the reduced system with the three-term preconditioner.

    The preconditioner is built here, so its cost is part of the solve.
    """
    precondition = two_level_preconditioner(system.A, system.basis)
    u, info = solve_cg(system.A, system.b, tol=tol, maxiter=maxiter, precondition=precondition)
    u_cell = system.basis.Phi @ u
    return SolveResult(
        u,
        u_cell,
        info["iterations"],
        info["converged"],
        info["method"],
        info["residuals"],
        info["true_rel_residual"],
    )


@dataclass
class OracleResult:
    x_cell: np.ndarray
    multipliers: np.ndarray
    constraint_residual: float


def solve_oracle(system: AssembledSystem, cons: ConstraintSystem) -> OracleResult:
    """Saddle-point solve on the product space by cell elimination; no basis involved.

    Factors only S = B A_cell^-1 B^T over ``cons.kept_rows()`` (see the
    module docstring); ``multipliers`` is zero on the other rows.  Raises
    the rank certificate's ValueError when B cannot be certified.
    """
    prod = system.prod
    kept = cons.kept_rows()
    B = cons.B.tocsr()[kept]
    chol = np.linalg.cholesky(prod.gram)
    W = prod.block_diagonal(np.linalg.inv(chol).transpose(0, 2, 1))
    C = (B @ W).tocsr()
    wb = W.T @ system.b_cell
    y = _factor_spd(C @ C.T).solve(C @ wb)
    x = W @ (wb - C.T @ y)
    multipliers = np.zeros(cons.rows)
    multipliers[kept] = y
    resid = float(np.linalg.norm(cons.B @ x)) / max(1.0, float(np.linalg.norm(x)))
    return OracleResult(x, multipliers, resid)


def error_norms(
    u_cell: np.ndarray,
    prod: ProductSpace,
    field: SmoothField,
    quad_order: int = 6,
) -> dict[str, float]:
    """Broken L2, rot, div, and energy errors of a product-space field."""
    tab = prod.tables(quad_order)
    flat = prod.nodes(quad_order).reshape(-1, 2)
    coeffs = np.asarray(u_cell, dtype=float).reshape(-1, 6)
    # the discrete field at every node, less the field, in place
    diff = (prod.by_template(coeffs) @ prod.derived(_shape_table, quad_order)).reshape(-1, 4)
    diff[:, :2] -= field.value(flat)
    diff[:, 2] -= field.rot(flat)
    diff[:, 3] += field.div(flat)  # the Green delta is minus the div
    sums = tab["weights"][prod.template_index].ravel() @ np.square(diff, out=diff)
    l2_sq, rot_sq, div_sq = float(sums[0] + sums[1]), float(sums[2]), float(sums[3])
    return {
        "l2": math.sqrt(l2_sq),
        "rot": math.sqrt(rot_sq),
        "div": math.sqrt(div_sq),
        "energy": math.sqrt(l2_sq + rot_sq + div_sq),
    }


def _shape_table(prod: ProductSpace, order: int) -> np.ndarray:
    """Rows (template, shape index), columns (node, component): the value x,
    value y, d and Green delta of each shape function."""
    tab = prod.tables(order)
    shape = np.concatenate([tab["val"], tab["dval"][..., None], tab["gval"][..., None]], axis=3)
    return shape.reshape(len(shape) * 6, -1)


def broken_energy_product(
    u_cell: np.ndarray, v_cell: np.ndarray, prod: ProductSpace
) -> float:
    """u^T A_cell v from the float template Grams, as one sparse product."""
    uk = np.asarray(u_cell, dtype=float).reshape(-1, 6)
    vk = np.asarray(v_cell, dtype=float).reshape(-1, 6)
    return float(np.sum((prod.by_template(uk) @ prod.gram.reshape(-1, 6)) * vk))


@dataclass
class StudyRow:
    m: int
    h: float
    dofs: int
    errors: dict[str, float]
    cg_iters: int | None = None
    oracle_gap: float | None = None
    wall_ms: float | None = None
    method: str | None = None
    oracle_residual: float | None = None


def interpolation_study(
    field: SmoothField,
    ms: list[int],
    pattern: str = DIAGONAL,
    quad_order: int = 6,
) -> list[StudyRow]:
    """Interpolate a field on a family of structured meshes."""
    mu = as_callback(field)
    rows = []
    for m in ms:
        tri = generate_square_mesh(m, pattern)
        prod = build_product_space(tri)
        u_cell = global_interpolate(mu, tri, prod, quad_order=quad_order)
        errs = error_norms(u_cell, prod, field, quad_order=quad_order)
        rows.append(StudyRow(m, tri.h, prod.dim, errs))
    return rows


def solver_study(
    field: SmoothField,
    ms: list[int],
    pattern: str = DIAGONAL,
    quad_order: int = 6,
    tol: float = 1e-10,
    oracle_max_m: int | None = None,
) -> Iterator[StudyRow]:
    """Solve the model problem on a family of structured meshes.

    Yields one row per mesh as soon as it is finished.  ``wall_ms``
    times mesh generation through the solve, and ``method`` names the
    solver path.  When oracle_max_m is set, meshes with m at or below it
    also run the saddle-point oracle and record the relative energy-norm
    gap between the two solutions and the oracle's constraint residual.
    """
    for m in ms:
        t0 = time.perf_counter()
        tri = generate_square_mesh(m, pattern)
        prod = build_product_space(tri)
        basis = build_global_basis(tri, prod)
        system = assemble(tri, field, quad_order=quad_order, prod=prod, basis=basis)
        result = solve_system(system, tol=tol)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        errs = error_norms(result.u_cell, prod, field, quad_order=quad_order)
        row = StudyRow(
            m,
            tri.h,
            len(basis),
            errs,
            cg_iters=result.iterations,
            wall_ms=wall_ms,
            method=result.method,
        )
        if oracle_max_m is not None and m <= oracle_max_m:
            oracle = solve_oracle(system, build_constraints(tri, prod))
            diff = oracle.x_cell - result.u_cell
            row.oracle_gap = math.sqrt(
                max(broken_energy_product(diff, diff, prod), 0.0)
                / max(broken_energy_product(oracle.x_cell, oracle.x_cell, prod), 1e-300)
            )
            row.oracle_residual = oracle.constraint_residual
        yield row


def fit_rate(rows: list[StudyRow], key: str = "energy") -> float:
    """Least-squares slope of log(error) against log(h) over a study."""
    if len(rows) < 2:
        raise ValueError("need at least two mesh levels to fit a rate")
    hs = np.log([r.h for r in rows])
    es = np.log([max(r.errors[key], 1e-300) for r in rows])
    slope = np.polyfit(hs, es, 1)[0]
    return float(slope)

"""Assembly, solvers, and error norms for the model problem.

Discretizes

    <d u, d v> + <delta u, delta v> + <u, v> = <f, v>   for all v

over the explicit kernel basis of the constrained broken space.  The
bilinear form is evaluated exactly (each cell Gram is its exact value
rounded once, ``ProductSpace.gram``); only the load vector and the error
integrals use quadrature.

Two solution paths are provided.  The oracle path never forms a basis:
it solves the saddle-point system

    [ A_cell  B^T ] [x]   [b_cell]
    [   B      0  ] [y] = [  0   ]

by eliminating the cells (``HybridSystem``).  A_cell is block diagonal
with one SPD 6x6 Gram per cell, so with A_cell^-1 = W W^T (W =
blockdiag(L^-T), L the Cholesky factor of each template Gram, one
batched call) and C = B W, the multipliers solve the SPD system

    S y = C W^T b_cell,    S = B A_cell^-1 B^T = C C^T,

and then x = W (W^T b_cell - C^T y).  S has the pattern of the vertex
graph and is factored by ``splu`` with minimum degree on its symmetric
pattern.  S is SPD: every ``ConstraintSystem`` holds a B of full row
rank, certified when it was built.  The factor lives only in the call
that builds it: ``solve_system`` also solves the saddle point with it,
records (B, x, y) on the system and drops it, and ``solve_oracle``
returns that record for the product space's own B (the same object)
and factors afresh for any other B.  Kept objects were measured and
rejected on the benchmark (``perfbench/run.py``, one BLAS thread, 2
cores): a factor kept on the audit's constraints raised ``ladder``
peak RSS 4.6%, and a ``ConstraintSystem`` cached on its product space
makes a reference cycle that raised it from 82.4-82.6 to 109.3-113.1 MB
(``jitter``: 76.6-77.5 to 88.6-88.9 MB).  The space caches only B.

The primary path reduces to the kernel basis (A = Phi^T A_cell Phi) and
runs preconditioned conjugate gradients.  The map b_cell -> x above is
H = W (I - C^T S^-1 C) W^T = Phi A^-1 Phi^T, so with K any left inverse
of Phi, K H K^T = A^-1 (the null-space identity).  ``solve_system`` takes
K from the fan sums of the Whitney values
(``GlobalBasis.kernel_coordinates``) and preconditions with M = K H K^T,
so PCG stops in one or two iterations.
The two paths stay independent checks of each other: PCG stops on the
true residual of A u = b, so a wrong H makes PCG slow, not wrong, and a
wrong oracle shows as a gap between the two broken fields, the
cross-check that ``study`` makes on every solved mesh.

``study`` is the one convergence-study loop, behind both ``interpolate``
and ``solve``: per mesh it takes either the interpolant or the PCG
solution (with its oracle gap) and its error norms.
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
    ConstraintSystem,
    GlobalBasis,
    ProductSpace,
    _check_same_mesh,
    build_constraints,
    build_global_basis,
    build_product_space,
    global_interpolate,
)
from .mesh import DIAGONAL, Triangulation, generate_square_mesh

__all__ = [
    "AssembledSystem",
    "SolveResult",
    "OracleResult",
    "StudyRow",
    "cell_load_vector",
    "assemble",
    "check_tol",
    "solve_cg",
    "HybridSystem",
    "solve_system",
    "solve_oracle",
    "error_norms",
    "broken_energy_product",
    "study",
    "fit_rate",
]


def cell_load_vector(
    prod: ProductSpace, field: SmoothField, quad_order: int = 6
) -> np.ndarray:
    """Per-cell load <f, mu_i>_T against the shape basis, as one sparse product."""
    nodes = prod.nodes(quad_order)
    fv = np.asarray(field.f(nodes.reshape(-1, 2))).reshape(len(nodes), -1)  # (cell, node * x)
    tab = prod.tables(quad_order)
    # the weighted shape values, rows (template, node, x), columns the shape index
    table = (tab["weights"][:, None, :, None] * tab["shape"][..., :2]).transpose(0, 2, 3, 1)
    return (prod.by_template(fv) @ table.reshape(-1, 6)).ravel()


@dataclass
class AssembledSystem:
    prod: ProductSpace
    basis: GlobalBasis
    A: sp.csr_matrix
    b: np.ndarray
    A_cell: sp.csr_matrix
    b_cell: np.ndarray
    # (B, x_cell, multipliers): the saddle point that solve_system solved for b_cell
    saddle_point: tuple | None = None


def assemble(
    tri: Triangulation,
    field: SmoothField,
    quad_order: int = 6,
    prod: ProductSpace | None = None,
    basis: GlobalBasis | None = None,
) -> AssembledSystem:
    if prod is None:
        prod = build_product_space(tri)
    _check_same_mesh(tri, prod)
    if basis is None:
        basis = build_global_basis(tri, prod)
    _check_same_mesh(tri, basis.prod, "the basis")
    # the block-diagonal broken Gram <d.,d.> + <delta.,delta.> + <.,.>
    A_cell = prod.block_diagonal(prod.gram).tocsr()
    b_cell = cell_load_vector(prod, field, quad_order)
    Phi = basis.Phi
    A = (Phi.T @ (A_cell @ Phi)).tocsr()
    A.sum_duplicates()
    b = Phi.T @ b_cell
    return AssembledSystem(prod, basis, A, b, A_cell, b_cell)


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
    precondition: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    callback=None,
) -> tuple[np.ndarray, dict]:
    """Preconditioned conjugate gradients; returns x and an info dict with
    ``iterations`` and ``true_rel_residual``.

    ``precondition(r)`` returns the preconditioned residual.  CG stops on
    the true residual: when the recursively updated residual reaches
    ``tol``, b - A x is recomputed and accepted only if it is within
    ``tol`` too; otherwise CG goes on from it.  ``info["true_rel_residual"]``
    is the final ||b - A x|| / ||b||.  CG raises RuntimeError when it
    misses ``tol`` in max(n, 100 sqrt(n)) iterations (with the last
    relative residual) and when it breaks down: a non-positive diagonal
    entry or curvature, or a non-finite ``rz``, ``pAp`` or residual norm
    (named with the iteration).  So every x returned has converged.
    ``callback(x)`` is invoked with the current iterate after every
    step.  A ``tol`` that is not positive and finite raises ValueError.
    """
    check_tol(tol)
    n = b.shape[0]
    maxiter = max(n, int(100.0 * np.sqrt(n)))
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), {"iterations": 0, "true_rel_residual": 0.0}
    if np.any(A.diagonal() <= 0):
        raise RuntimeError("system diagonal has non-positive entries; matrix is not SPD")
    x = np.zeros(n)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    rnorm = bnorm
    it = 0

    def finite(name: str, value: float, iteration: int) -> None:
        if not math.isfinite(value):
            raise RuntimeError(
                f"conjugate gradients hit a non-finite {name} ({value}) "
                f"at iteration {iteration} (n={n})"
            )

    while it < maxiter:
        finite("rz", rz, it + 1)
        Ap = A @ p
        pAp = float(p @ Ap)
        finite("pAp", pAp, it + 1)
        if pAp <= 0:
            raise RuntimeError("conjugate gradients hit a non-positive curvature direction")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        if callback is not None:
            callback(x.copy())
        rnorm = float(np.linalg.norm(r))
        finite("residual", rnorm, it)
        if rnorm <= tol * bnorm:
            r = b - A @ x
            rnorm = float(np.linalg.norm(r))
            finite("residual", rnorm, it)
            if rnorm <= tol * bnorm:
                return x, {"iterations": it, "true_rel_residual": rnorm / bnorm}
        z = precondition(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(
        f"conjugate gradients did not converge in {it} iterations "
        f"(relative residual {rnorm / bnorm:.3e}, n={n})"
    )


def _factor_spd(M: sp.spmatrix) -> spla.SuperLU:
    """``splu`` of a sparse SPD matrix: minimum degree on its symmetric
    pattern, diagonal pivots preferred."""
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


class HybridSystem:
    """The cell-eliminated saddle-point system of ``cons``, factored once.

    ``W`` is blockdiag(L^-T) over the cells of ``cons.prod``, L the
    Cholesky factor of each template Gram (one batched call), so
    A_cell^-1 = W W^T; ``C`` = B W; and S = C C^T, SPD since B has full
    row rank, is factored once.
    """

    def __init__(self, cons: ConstraintSystem):
        chol = np.linalg.cholesky(cons.prod.gram)
        self.W = cons.prod.block_diagonal(np.linalg.inv(chol).transpose(0, 2, 1))
        self.C = (cons.B.tocsr() @ self.W).tocsr()
        self.lu = _factor_spd(self.C @ self.C.T)

    def solve(self, b_cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) with A_cell x + B^T y = b_cell and B x = 0."""
        wb = self.W.T @ b_cell
        y = self.lu.solve(self.C @ wb)
        return self.W @ (wb - self.C.T @ y), y


@dataclass
class SolveResult:
    """A converged solve: PCG raises instead of returning an unconverged one.

    ``true_rel_residual`` is the ||b - A u|| / ||b|| that PCG stopped on,
    and ``method`` names the solver path, which is always PCG.
    """

    u: np.ndarray
    u_cell: np.ndarray
    iterations: int
    true_rel_residual: float
    method: str = "pcg"


def solve_system(system: AssembledSystem, tol: float = 1e-10) -> SolveResult:
    """CG on the reduced system, preconditioned by the cell-eliminated saddle point.

    With K the left inverse of Phi from the Whitney values
    (``GlobalBasis.kernel_coordinates``), M r = K x, where x solves the
    saddle point for the broken right-hand side K^T r (``HybridSystem``);
    M = A^-1 up to rounding.  The constraints, K and the factorization are
    built here, so their cost is part of the solve.  The factorization
    also solves the saddle point for ``system.b_cell`` into
    ``system.saddle_point``, which ``solve_oracle`` returns and ``study``
    checks on every mesh: one multiplier solve, 4-5% of an m = 128 solve.
    Raises the rank certificate's ``RankAuditError`` when the product
    space's B cannot be certified.
    """
    prod, basis = system.prod, system.basis
    cons = build_constraints(prod.tri, prod)
    hybrid = HybridSystem(cons)
    system.saddle_point = (cons.B, *hybrid.solve(system.b_cell))
    K = basis.kernel_coordinates()

    def precondition(r: np.ndarray) -> np.ndarray:
        return K @ hybrid.solve(K.T @ r)[0]

    u, info = solve_cg(system.A, system.b, precondition=precondition, tol=tol)
    return SolveResult(u, basis.Phi @ u, info["iterations"], info["true_rel_residual"])


@dataclass
class OracleResult:
    x_cell: np.ndarray
    multipliers: np.ndarray
    constraint_residual: float


def solve_oracle(system: AssembledSystem, cons: ConstraintSystem) -> OracleResult:
    """Saddle-point solve on the product space by cell elimination; no basis involved.

    One ``HybridSystem`` solve for ``system.b_cell``, with one multiplier
    per row of B: the one ``solve_system`` recorded when ``cons.B is`` its
    B (bit for bit a fresh solve), else one here.  Raises ValueError when
    ``cons`` was built on another triangulation.
    """
    _check_same_mesh(system.prod.tri, cons.prod, "the constraints")
    record = system.saddle_point
    if record is not None and record[0] is cons.B:
        x, y = record[1:]
    else:
        x, y = HybridSystem(cons).solve(system.b_cell)
    resid = float(np.linalg.norm(cons.B @ x)) / max(1.0, float(np.linalg.norm(x)))
    return OracleResult(x, y, resid)


def error_norms(
    u_cell: np.ndarray,
    prod: ProductSpace,
    field: SmoothField,
    quad_order: int = 6,
) -> dict[str, float]:
    """Broken L2, rot, div, and energy errors of a product-space field.

    The field's value, rot and Green delta (minus the div) at the nodes
    are ``prod.node_values(as_callback(field), quad_order)``, evaluated on
    the first call for this (field, quad_order) and shared with
    ``global_interpolate`` of the same field.  Raises ValueError unless
    u_cell has 6 * cells entries.
    """
    tab = prod.tables(quad_order)
    coeffs = _cell_coefficients(u_cell, prod, "u_cell")
    # before diff exists, so that a first evaluation's temporaries do not add to it
    exact = prod.node_values(as_callback(field), quad_order)
    # the discrete field at every node, less the field, in place
    shape = tab["shape"].reshape(len(prod.templates) * 6, -1)  # rows (template, shape index)
    diff = (prod.by_template(coeffs) @ shape).reshape(-1, 4)
    diff -= exact
    sums = tab["weights"][prod.template_index].ravel() @ np.square(diff, out=diff)
    l2_sq, rot_sq, div_sq = float(sums[0] + sums[1]), float(sums[2]), float(sums[3])
    return {
        "l2": math.sqrt(l2_sq),
        "rot": math.sqrt(rot_sq),
        "div": math.sqrt(div_sq),
        "energy": math.sqrt(l2_sq + rot_sq + div_sq),
    }


def _cell_coefficients(u_cell: np.ndarray, prod: ProductSpace, name: str) -> np.ndarray:
    """u_cell as floats, one row of six per cell; ValueError unless it has 6 * cells entries."""
    coeffs = np.asarray(u_cell, dtype=float)
    if coeffs.size != prod.dim:
        raise ValueError(f"{name} has length {coeffs.size}, expected 6 * cells = {prod.dim}")
    return coeffs.reshape(-1, 6)


def broken_energy_product(
    u_cell: np.ndarray, v_cell: np.ndarray, prod: ProductSpace
) -> float:
    """u^T A_cell v from the float template Grams, as one sparse product.

    Raises ValueError unless u_cell and v_cell each have 6 * cells entries.
    """
    uk = _cell_coefficients(u_cell, prod, "u_cell")
    vk = _cell_coefficients(v_cell, prod, "v_cell")
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
    oracle_residual: float | None = None


def study(
    field: SmoothField,
    ms: list[int],
    pattern: str = DIAGONAL,
    quad_order: int = 6,
    tol: float | None = None,
) -> Iterator[StudyRow]:
    """Interpolate a field, or solve for it, on a family of structured meshes.

    Yields one row per mesh as soon as it is finished.  With ``tol``
    None a row holds the interpolant's errors, and ``dofs`` is 6 * cells.
    With a ``tol`` it holds the errors of the PCG solve to that
    tolerance, ``dofs`` is the kernel basis size, ``cg_iters`` is set,
    and so are the relative energy-norm gap to the saddle-point oracle
    and the oracle's constraint residual.  The oracle is the saddle point
    that ``solve_system`` recorded, so B is built, certified and factored
    once per mesh, and no factorization outlives ``solve_system``.
    ``wall_ms`` times mesh generation through the interpolant, or
    through the solve and its oracle check; the error norms come after.
    """
    for m in ms:
        t0 = time.perf_counter()
        tri = generate_square_mesh(m, pattern)
        prod = build_product_space(tri)
        row = StudyRow(m, tri.h, prod.dim, {})
        if tol is None:
            u_cell = global_interpolate(as_callback(field), tri, prod, quad_order=quad_order)
        else:
            system = assemble(tri, field, quad_order=quad_order, prod=prod)
            result = solve_system(system, tol)
            u_cell = result.u_cell
            row.dofs, row.cg_iters = len(system.basis), result.iterations
            oracle = solve_oracle(system, build_constraints(tri, prod))
            diff = oracle.x_cell - u_cell
            row.oracle_gap = math.sqrt(
                max(broken_energy_product(diff, diff, prod), 0.0)
                / max(broken_energy_product(oracle.x_cell, oracle.x_cell, prod), 1e-300)
            )
            row.oracle_residual = oracle.constraint_residual
        row.wall_ms = (time.perf_counter() - t0) * 1000.0
        row.errors = error_norms(u_cell, prod, field, quad_order=quad_order)
        yield row


def fit_rate(rows: list[StudyRow]) -> float:
    """Least-squares slope of log(energy error) against log(h) over a study."""
    if len({r.h for r in rows}) < 2:
        raise ValueError("need at least two mesh levels of distinct h to fit a rate")
    hs = np.log([r.h for r in rows])
    es = np.log([max(r.errors["energy"], 1e-300) for r in rows])
    slope = np.polyfit(hs, es, 1)[0]
    return float(slope)

"""Assembly, solvers, and error norms for the model problem.

Discretizes

    <d u, d v> + <delta u, delta v> + <u, v> = <f, v>   for all v

over the explicit kernel basis of the constrained broken space.  The
bilinear form is evaluated exactly (cell Grams come from the rational
element tables); only the load vector and the error integrals use
quadrature.

Two independent solution paths are provided.  The primary path reduces
to the kernel basis (A = Phi^T A_cell Phi) and runs Jacobi-preconditioned
conjugate gradients.  The oracle path never forms a basis: it solves the
saddle-point system

    [ A_cell  B^T ] [x]   [b_cell]
    [   B      0  ] [y] = [  0   ]

with a sparse direct factorization.  Both must produce the same broken
field, which is the cross-check used by the verification suite.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import SmoothField, as_callback
from .globalspace import (
    ConstraintSystem,
    GlobalBasis,
    ProductSpace,
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
    "cell_gram_matrix",
    "cell_load_vector",
    "assemble",
    "solve_cg",
    "solve_system",
    "solve_oracle",
    "error_norms",
    "broken_energy_product",
    "interpolation_study",
    "solver_study",
    "fit_rate",
]

DENSE_FALLBACK_LIMIT = 2000

_SLOT = np.arange(6)


def cell_gram_matrix(prod: ProductSpace) -> sp.csr_matrix:
    """Block-diagonal broken Gram <d.,d.> + <delta.,delta.> + <.,.>."""
    ii, jj = np.meshgrid(_SLOT, _SLOT, indexing="ij")
    rows, cols, data = [], [], []
    for t, cells in zip(prod.templates, prod.cells_by_template):
        g = t.gram_float
        base = 6 * cells
        rows.append((base[:, None, None] + ii[None]).ravel())
        cols.append((base[:, None, None] + jj[None]).ravel())
        data.append(np.broadcast_to(g, (len(cells), 6, 6)).ravel())
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(prod.dim, prod.dim),
    ).tocsr()


def cell_load_vector(
    prod: ProductSpace, field: SmoothField, quad_order: int = 6
) -> np.ndarray:
    """Per-cell load <f, mu_i>_T against the shape basis, by template batch."""
    b = np.zeros(prod.dim)
    for t, cells in zip(prod.templates, prod.cells_by_template):
        tab = t.tables(quad_order)
        nodes, w = tab["centered"], tab["weights"]
        pts = prod.barycenters[cells][:, None, :] + nodes[None, :, :]
        fv = np.asarray(field.f(pts.reshape(-1, 2))).reshape(len(cells), -1, 2)
        blocks = np.einsum("q,iqx,cqx->ci", w, tab["val"], fv)
        b[(6 * cells[:, None] + _SLOT[None]).ravel()] = blocks.ravel()
    return b


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


def solve_cg(
    A: sp.csr_matrix,
    b: np.ndarray,
    tol: float = 1e-10,
    maxiter: int | None = None,
    callback=None,
) -> tuple[np.ndarray, dict]:
    """Jacobi-preconditioned conjugate gradients with residual history.

    CG stops on the true residual: when the recursively updated residual
    reaches ``tol``, b - A x is recomputed and accepted only if it is
    within ``tol`` too; otherwise CG continues from the recomputed
    residual under the same iteration cap.  ``info["true_rel_residual"]``
    is the final ||b - A x|| / ||b||.  Falls back to a dense solve when
    CG stalls and the system is small (at most DENSE_FALLBACK_LIMIT
    unknowns); otherwise raises with the final relative residual in the
    message.  ``callback(x)`` is invoked with the current iterate after
    every step.
    """
    n = b.shape[0]
    if maxiter is None:
        # observed iteration counts for the kernel basis run near 64*sqrt(n)
        # at tol 1e-10, growing like h^-1; 100*sqrt(n) leaves headroom
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
    x = np.zeros(n)
    r = b.copy()
    z = r / diag
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
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    info["iterations"] = it
    info["residuals"] = np.array(residuals)
    info["converged"] = converged
    if not converged:
        if n <= DENSE_FALLBACK_LIMIT:
            x = np.linalg.solve(A.toarray(), b)
            info["method"] = "dense-fallback"
            info["converged"] = True
            info["true_rel_residual"] = float(np.linalg.norm(b - A @ x)) / bnorm
        else:
            raise RuntimeError(
                f"conjugate gradients did not converge in {it} iterations "
                f"(relative residual {residuals[-1] / bnorm:.3e}, n={n})"
            )
    return x, info


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
    u, info = solve_cg(system.A, system.b, tol=tol, maxiter=maxiter)
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
    """Direct saddle-point solve on the product space; no basis involved."""
    B = cons.B
    K = sp.bmat([[system.A_cell, B.T], [B, None]], format="csc")
    rhs = np.concatenate([system.b_cell, np.zeros(B.shape[0])])
    sol = spla.spsolve(K, rhs)
    x = sol[: system.prod.dim]
    lam = sol[system.prod.dim :]
    resid = float(np.linalg.norm(B @ x)) / max(1.0, float(np.linalg.norm(x)))
    return OracleResult(x, lam, resid)


def error_norms(
    u_cell: np.ndarray,
    prod: ProductSpace,
    field: SmoothField,
    quad_order: int = 6,
) -> dict[str, float]:
    """Broken L2, rot, div, and energy errors of a product-space field."""
    l2_sq = rot_sq = div_sq = 0.0
    coeffs = np.asarray(u_cell, dtype=float).reshape(-1, 6)
    for t, cells in zip(prod.templates, prod.cells_by_template):
        tab = t.tables(quad_order)
        nodes, w = tab["centered"], tab["weights"]
        pts = prod.barycenters[cells][:, None, :] + nodes[None, :, :]
        flat = pts.reshape(-1, 2)
        uk = coeffs[cells]
        uh_v = np.einsum("ci,iqx->cqx", uk, tab["val"])
        uh_d = np.einsum("ci,iq->cq", uk, tab["dval"])
        uh_g = np.einsum("ci,iq->cq", uk, tab["gval"])
        nq = nodes.shape[0]
        wv = np.asarray(field.value(flat)).reshape(len(cells), nq, 2)
        wr = np.asarray(field.rot(flat)).reshape(len(cells), nq)
        wd = np.asarray(field.div(flat)).reshape(len(cells), nq)
        l2_sq += float(np.einsum("q,cqx->", w, (uh_v - wv) ** 2))
        rot_sq += float(np.einsum("q,cq->", w, (uh_d - wr) ** 2))
        # gval carries the Green-sign codifferential, i.e. minus the div
        div_sq += float(np.einsum("q,cq->", w, (uh_g + wd) ** 2))
    return {
        "l2": math.sqrt(l2_sq),
        "rot": math.sqrt(rot_sq),
        "div": math.sqrt(div_sq),
        "energy": math.sqrt(l2_sq + rot_sq + div_sq),
    }


def broken_energy_product(
    u_cell: np.ndarray, v_cell: np.ndarray, prod: ProductSpace
) -> float:
    """u^T A_cell v evaluated template-by-template from the exact Grams."""
    uk = np.asarray(u_cell, dtype=float).reshape(-1, 6)
    vk = np.asarray(v_cell, dtype=float).reshape(-1, 6)
    total = 0.0
    for t, cells in zip(prod.templates, prod.cells_by_template):
        total += float(np.einsum("ci,ij,cj->", uk[cells], t.gram_float, vk[cells]))
    return total


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

"""Output checks of the benchmark.

Each check recomputes a property the method must have from the raw
outputs, apart from the program's own reporting, and raises
``CheckFailed`` on a wrong answer.  No check compares against stored
output.  The checks take plain arrays and numbers, so
``test_checks.py`` can feed each one a deliberately wrong answer.
"""

from __future__ import annotations

import math

import numpy as np

TOL_ORACLE_ENERGY = 1e-8
TOL_ORACLE_CONSTRAINT = 1e-10
TOL_INTERP_CONSTRAINT = 1e-9
TOL_KERNEL_ROUNDOFF = 1e-12
RATE_RANGE = (0.9, 1.2)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _fail(what: str, detail: str) -> None:
    raise CheckFailed(f"{what}: {detail}")


def basis_dimension(
    what: str, dofs: int, cells: int, vertices: int, interior: int, rank: int | None = None
) -> None:
    """The kernel basis count is 6*cells - vertices - interior vertices.

    With the audit's rank of B, it also equals 6*cells - rank.
    """
    want = 6 * cells - vertices - interior
    if dofs != want:
        _fail(what, f"basis count {dofs} != 6*{cells} - {vertices} - {interior} = {want}")
    if rank is not None and dofs != 6 * cells - rank:
        _fail(what, f"basis count {dofs} != 6*{cells} - rank {rank} = {6 * cells - rank}")


def true_residual(what: str, A, u: np.ndarray, b: np.ndarray, tol: float) -> float:
    """||b - A u|| / ||b|| recomputed outside the solver, at most tol."""
    rel = float(np.linalg.norm(b - A @ u) / np.linalg.norm(b))
    if not rel <= tol:
        _fail(what, f"true relative residual {rel:.3e} > tol {tol:.1e}")
    return rel


def oracle_agreement(what: str, A_cell, B, u_cell: np.ndarray, x_cell: np.ndarray) -> float:
    """The reduced solution matches the saddle-point solution in energy.

    The energy-norm gap ||x - u||_A / ||x||_A is at most 1e-8 and the
    oracle's constraint residual ||B x|| / max(1, ||x||) at most 1e-10.
    """
    diff = x_cell - u_cell
    num = float(diff @ (A_cell @ diff))
    den = float(x_cell @ (A_cell @ x_cell))
    if not (den > 0.0 and num >= 0.0):
        _fail(what, f"energy products not positive ({num:.3e}, {den:.3e})")
    gap = math.sqrt(num / den)
    if not gap <= TOL_ORACLE_ENERGY:
        _fail(what, f"oracle energy gap {gap:.3e} > {TOL_ORACLE_ENERGY:.0e}")
    resid = float(np.linalg.norm(B @ x_cell)) / max(1.0, float(np.linalg.norm(x_cell)))
    if not resid <= TOL_ORACLE_CONSTRAINT:
        _fail(what, f"oracle constraint residual {resid:.3e} > {TOL_ORACLE_CONSTRAINT:.0e}")
    return gap


def constraint_membership(what: str, B, u_cell: np.ndarray) -> float:
    """A field in the constrained space satisfies every vertex row of B."""
    worst = float(np.abs(B @ u_cell).max())
    if not worst <= TOL_INTERP_CONSTRAINT:
        _fail(what, f"vertex constraint residual {worst:.3e} > {TOL_INTERP_CONSTRAINT:.0e}")
    return worst


def energy_rate(what: str, hs: list[float], errors: list[float]) -> float:
    """The least-squares slope of log(error) against log(h) lies in [0.9, 1.2]."""
    if len(hs) < 2:
        return float("nan")
    if not all(e > 0.0 and math.isfinite(e) for e in errors):
        _fail(what, f"energy errors {errors} are not positive and finite")
    rate = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    lo, hi = RATE_RANGE
    if not lo <= rate <= hi:
        _fail(what, f"fitted energy rate {rate:.4f} outside [{lo}, {hi}]")
    return rate


def mesh_round_trip(what: str, vertices, cells, parsed_vertices, parsed_cells) -> None:
    """Reading a written mesh returns exactly the generated vertices and cells."""
    if list(parsed_vertices) != list(vertices):
        _fail(what, "parsed vertices differ from the generated ones")
    if [tuple(c) for c in parsed_cells] != [tuple(c) for c in cells]:
        _fail(what, "parsed cells differ from the generated ones")


def kernel_roundoff(what: str, B, Phi) -> float:
    """Every basis vector lies in the kernel of B up to float round-off.

    The basis entries are exact rationals converted to floats, so
    max|B Phi| is bounded by a few ulps of max|B| * max|Phi|.
    """
    scale = float(abs(B).max()) * float(abs(Phi).max())
    prod = B @ Phi
    worst = float(abs(prod).max()) if prod.nnz else 0.0
    if not worst <= TOL_KERNEL_ROUNDOFF * scale:
        _fail(what, f"max|B Phi| = {worst:.3e} > {TOL_KERNEL_ROUNDOFF:.0e} * {scale:.3e}")
    return worst / scale


def all_passed(what: str, results) -> int:
    """Every verification check reports success; returns the count."""
    bad = [r.name for r in results if not r.passed]
    if not results:
        _fail(what, "no checks ran")
    if bad:
        _fail(what, f"failed checks: {', '.join(bad)}")
    return len(results)

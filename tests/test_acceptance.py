"""Acceptance suite.

One test per promised criterion, in the order the README lists them.
Each test prints a single PASS/FAIL line (visible with pytest -s; the
test names double as the lines under pytest -v) and asserts the stated
tolerance or budget.
"""

import math
import time

import numpy as np

from hodgefem.fields import as_callback, get_field
from hodgefem.globalspace import (
    CATEGORIES,
    DIV_PATCH,
    ROT_CELL,
    ROT_PATCH,
    build_constraints,
    build_global_basis,
    build_product_space,
    global_interpolate,
)
from hodgefem.mesh import generate_square_mesh
from hodgefem.solver import (
    assemble,
    error_norms,
    fit_rate,
    solve_oracle,
    solve_system,
    study,
)
from hodgefem.verify import identity_suite, norm_suite, unisolvence_suite

from reference import basis_functions


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_identities():
    t0 = time.perf_counter()
    checks = identity_suite(seed=0)
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in checks if not c.passed]
    ok = not bad and elapsed < 10.0
    _report(
        "criterion 1 (exact calculus identities, zero tolerance)",
        ok,
        f"{len(checks)} checks over n=2..4, failures {bad or 'none'}, {elapsed:.2f}s",
    )


def test_criterion_2_energy_norm_scaling():
    checks = norm_suite(count=100, seed=0)
    bad = [c.name for c in checks if not c.passed]
    _report(
        "criterion 2 (koszul energy scaling on random simplices)",
        not bad,
        f"{len(checks)} dimension pairs x 100 simplices, exact, failures {bad or 'none'}",
    )


def test_criterion_3_unisolvence_and_projection():
    checks = unisolvence_suite(count=1000, seed=0)
    bad = [c.name for c in checks if not c.passed]
    details = "; ".join(c.detail for c in checks)
    _report(
        "criterion 3 (unisolvence and projection on 1000 random triangles)",
        not bad,
        details,
    )


def test_criterion_4_constraint_membership():
    field = get_field("polyflow")
    mu = as_callback(field)
    worst = 0.0
    for m in (2, 4, 8, 16):
        tri = generate_square_mesh(m)
        prod = build_product_space(tri)
        cons = build_constraints(tri, prod)
        u = global_interpolate(mu, tri, prod, quad_order=10)
        worst = max(worst, float(np.abs(cons.B @ u).max()))
    _report(
        "criterion 4 (interpolant satisfies the vertex constraints)",
        worst <= 1e-9,
        f"max residual {worst:.2e} over m=2,4,8,16 (tolerance 1e-9)",
    )


def test_criterion_5_interpolation_rate():
    t0 = time.perf_counter()
    rows = list(study(get_field("polyflow"), [2, 4, 8, 16]))
    elapsed = time.perf_counter() - t0
    rate = fit_rate(rows)
    errs = ", ".join(f"{r.errors['energy']:.4f}" for r in rows)
    ok = 0.9 <= rate <= 1.2 and elapsed < 60.0
    _report(
        "criterion 5 (first order interpolation in the energy norm)",
        ok,
        f"energies [{errs}], fitted rate {rate:.4f} in [0.9, 1.2], {elapsed:.1f}s",
    )


def test_criterion_6_basis_dimension_and_oracle():
    field = get_field("polyflow")
    details = []
    ok = True
    for m in (2, 4):
        tri = generate_square_mesh(m)
        prod = build_product_space(tri)
        cons = build_constraints(tri, prod)
        basis = build_global_basis(tri, prod)
        count_ok = len(basis) == 6 * len(tri.cells) - cons.rank()
        system = assemble(tri, field, prod=prod, basis=basis)
        result = solve_system(system, tol=1e-12)
        oracle = solve_oracle(system, cons)
        gap = float(
            np.linalg.norm(oracle.x_cell - result.u_cell)
            / np.linalg.norm(oracle.x_cell)
        )
        ok = ok and count_ok and gap <= 1e-8 and oracle.constraint_residual <= 1e-10
        details.append(f"m={m}: count {len(basis)} ({'ok' if count_ok else 'BAD'}), gap {gap:.2e}")
    _report(
        "criterion 6 (basis count equals nullity; saddle-point oracle agrees)",
        ok,
        "; ".join(details) + " (gap tolerance 1e-8)",
    )


def test_criterion_7_solver_convergence():
    field = get_field("polyflow")
    t0 = time.perf_counter()
    hs, energies, iters, dofs = [], [], [], []
    sym_worst = 0.0
    for m in (4, 8, 16, 32):
        tri = generate_square_mesh(m)
        prod = build_product_space(tri)
        basis = build_global_basis(tri, prod)
        system = assemble(tri, field, prod=prod, basis=basis)
        asym = float(np.abs(system.A - system.A.T).max() / np.abs(system.A).max())
        sym_worst = max(sym_worst, asym)
        result = solve_system(system, tol=1e-10)
        assert result.method == "pcg", f"m={m} fell back"
        n = len(basis)
        assert result.iterations <= 100.0 * math.sqrt(n), (
            f"m={m}: {result.iterations} iterations exceeds 100*sqrt({n})"
        )
        errs = error_norms(result.u_cell, prod, field)
        hs.append(tri.h)
        energies.append(errs["energy"])
        iters.append(result.iterations)
        dofs.append(n)
    elapsed = time.perf_counter() - t0
    rate = float(np.polyfit(np.log(hs), np.log(energies), 1)[0])
    growth = float(np.polyfit(np.log(dofs), np.log(iters), 1)[0])
    ok = (
        0.9 <= rate <= 1.2
        and sym_worst <= 1e-12
        and growth <= 0.8
        and elapsed < 300.0
    )
    _report(
        "criterion 7 (first order solver convergence with bounded PCG cost)",
        ok,
        f"rate {rate:.4f}, asymmetry {sym_worst:.1e}, iterations {iters} "
        f"(growth exponent {growth:.2f} <= 0.8, each within 100*sqrt(dofs)), {elapsed:.1f}s",
    )


def test_criterion_8_basis_locality():
    tri = generate_square_mesh(4)
    prod = build_product_space(tri)
    basis = build_global_basis(tri, prod)
    supports = {len(fn.cells) for fn in basis_functions(basis)}
    anchored = [CATEGORIES[c] for c in basis.category[basis.anchor == 12]]
    rot, div, cell = (anchored.count(name) for name in (ROT_PATCH, DIV_PATCH, ROT_CELL))
    ok = supports <= {1, 2} and rot == 5 and div == 5 and cell == 0
    _report(
        "criterion 8 (supports of one or two cells; degree-6 vertex counts)",
        ok,
        f"supports {sorted(supports)}, vertex 12: {rot} rot + {div} div patch functions",
    )

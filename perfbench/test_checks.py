"""Each benchmark check passes on the program's answer and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from hodgefem.fields import as_callback, get_field  # noqa: E402
from hodgefem.globalspace import (  # noqa: E402
    build_constraints,
    build_global_basis,
    build_product_space,
    global_interpolate,
)
from hodgefem.mesh import format_mesh, generate_square_mesh, parse_mesh  # noqa: E402
from hodgefem.solver import assemble, error_norms, solve_oracle, solve_system  # noqa: E402


@pytest.fixture(scope="module")
def m4():
    field = get_field("polyflow")
    tri = generate_square_mesh(4)
    prod = build_product_space(tri)
    basis = build_global_basis(tri, prod)
    system = assemble(tri, field, prod=prod, basis=basis)
    cons = build_constraints(tri, prod)
    return SimpleNamespace(
        tri=tri, basis=basis, system=system, cons=cons,
        result=solve_system(system, tol=1e-10),
        oracle=solve_oracle(system, cons),
        u_int=global_interpolate(as_callback(field), tri, prod),
    )


def test_basis_dimension(m4):
    t = m4.tri
    args = (len(t.cells), len(t.vertices), len(t.interior_vertices))
    rank = m4.cons.rank()
    checks.basis_dimension("m4", len(m4.basis), *args, rank)
    with pytest.raises(checks.CheckFailed, match="6\\*"):
        checks.basis_dimension("m4", len(m4.basis) + 1, *args)
    with pytest.raises(checks.CheckFailed, match="rank"):
        checks.basis_dimension("m4", len(m4.basis), *args, rank - 1)


def test_true_residual(m4):
    s = m4.system
    assert checks.true_residual("m4", s.A, m4.result.u, s.b, 1e-10) <= 1e-10
    wrong = m4.result.u * (1 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.true_residual("m4", s.A, wrong, s.b, 1e-10)


def test_oracle_agreement(m4):
    s, B = m4.system, m4.cons.B
    checks.oracle_agreement("m4", s.A_cell, B, m4.result.u_cell, m4.oracle.x_cell)
    with pytest.raises(checks.CheckFailed, match="energy gap"):
        checks.oracle_agreement("m4", s.A_cell, B, m4.result.u_cell * (1 + 1e-6), m4.oracle.x_cell)
    off_kernel = m4.oracle.x_cell.copy()
    off_kernel[0] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.oracle_agreement("m4", s.A_cell, B, off_kernel, off_kernel)


def test_constraint_membership(m4):
    checks.constraint_membership("m4", m4.cons.B, m4.u_int)
    wrong = m4.u_int.copy()
    wrong[3] += 1e-6
    with pytest.raises(checks.CheckFailed, match="vertex constraint"):
        checks.constraint_membership("m4", m4.cons.B, wrong)


def test_energy_rate():
    hs = [1 / 16, 1 / 32]
    assert checks.energy_rate("rate", hs, [0.02, 0.01]) == pytest.approx(1.0)
    with pytest.raises(checks.CheckFailed, match="rate"):
        checks.energy_rate("rate", hs, [0.02, 0.005])
    with pytest.raises(checks.CheckFailed, match="positive"):
        checks.energy_rate("rate", hs, [0.02, float("nan")])


def test_energy_rate_of_the_program():
    field = get_field("polyflow")
    hs, errs = [], []
    for m in (4, 8):
        tri = generate_square_mesh(m)
        prod = build_product_space(tri)
        errs.append(error_norms(global_interpolate(as_callback(field), tri, prod), prod, field)["energy"])
        hs.append(tri.h)
    checks.energy_rate("interpolate", hs, errs)
    with pytest.raises(checks.CheckFailed):
        checks.energy_rate("interpolate", hs, [errs[0], errs[0]])


def test_mesh_round_trip():
    tri = workloads.jittered_mesh(4, 7)
    back = parse_mesh(format_mesh(tri))
    checks.mesh_round_trip("j4", tri.vertices, tri.cells, back.vertices, back.cells)
    moved = list(back.vertices)
    x, y = moved[6]
    moved[6] = (x + Fraction(1, 10**9), y)
    with pytest.raises(checks.CheckFailed, match="vertices"):
        checks.mesh_round_trip("j4", tri.vertices, tri.cells, moved, back.cells)
    swapped = [back.cells[1], back.cells[0], *back.cells[2:]]
    with pytest.raises(checks.CheckFailed, match="cells"):
        checks.mesh_round_trip("j4", tri.vertices, tri.cells, back.vertices, swapped)


def test_kernel_roundoff(m4):
    Phi = m4.basis.Phi
    assert checks.kernel_roundoff("m4", m4.cons.B, Phi) <= 1e-12
    wrong = Phi.copy().tolil()
    wrong[0, 0] = wrong[0, 0] + 1e-9
    with pytest.raises(checks.CheckFailed, match="B Phi"):
        checks.kernel_roundoff("m4", m4.cons.B, wrong.tocsr())


def test_all_passed():
    ok = SimpleNamespace(name="a", passed=True)
    bad = SimpleNamespace(name="b", passed=False)
    assert checks.all_passed("verify", [ok, ok]) == 2
    with pytest.raises(checks.CheckFailed, match="b"):
        checks.all_passed("verify", [ok, bad])
    with pytest.raises(checks.CheckFailed, match="no checks"):
        checks.all_passed("verify", [])


def test_recorder_counts_failures_and_spans():
    rec = workloads.Recorder(traced=True)
    with rec.phase("solve"):
        with rec.call("good"):
            pass
        with pytest.raises(RuntimeError):
            with rec.call("bad"):
                raise RuntimeError("boom")
    assert rec.attempted == 2 and rec.failed == ["bad"]
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]
    assert set(rec.values) == {"good", "bad"} and rec.phases["solve"] > 0
    assert np.isfinite(rec.spans[0]["rss_mb"])

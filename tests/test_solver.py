"""Assembly, preconditioned CG, the saddle-point oracle and the studies."""

import dataclasses
import math
import re
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgefem.element import (
    dof_values,
    local_element,
    node_values,
    reference_element,
    solve_dofs,
)
from hodgefem.fields import FIELDS, SmoothField, as_callback, get_field
from hodgefem.forms import PolyForm
from hodgefem.globalspace import (
    ConstraintSystem,
    _interpolation_table,
    build_constraints,
    build_global_basis,
    build_product_space,
    global_interpolate,
)
from hodgefem.mesh import (
    CRISSCROSS,
    DIAGONAL,
    Triangulation,
    generate_jittered_mesh,
    generate_square_mesh,
)
import hodgefem.element
import hodgefem.globalspace
import hodgefem.solver
from hodgefem.solver import (
    HybridSystem,
    StudyRow,
    _kernel_coordinates,
    _shape_table,
    assemble,
    broken_energy_product,
    cell_load_vector,
    error_norms,
    fit_rate,
    solve_cg,
    solve_oracle,
    solve_system,
    study,
)

from conftest import MESHES
from reference import barycentric_coordinates, simplex


def _zeros_field():
    def zero_scalar(pts):
        return np.zeros(len(pts))

    def zero_vector(pts):
        return np.zeros((len(pts), 2))

    return SmoothField(
        name="zero",
        value=zero_vector,
        rot=zero_scalar,
        div=zero_scalar,
        f=zero_vector,
        zero_normal_trace=True,
        zero_boundary_rot=True,
    )


def _assembled(m=2, field_name="polyflow"):
    tri = generate_square_mesh(m)
    return tri, assemble(tri, get_field(field_name))


def test_reduced_matrix_is_symmetric_positive_definite():
    _, system = _assembled(2)
    A = system.A.toarray()
    assert A.shape == (38, 38)
    assert np.abs(A - A.T).max() <= 1e-13 * np.abs(A).max()
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert w[0] > 0


def test_reduced_matrix_matches_broken_product():
    tri, system = _assembled(2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(len(system.basis))
        y = rng.standard_normal(len(system.basis))
        lhs = float(x @ (system.A @ y))
        rhs = broken_energy_product(
            system.basis.Phi @ x, system.basis.Phi @ y, system.prod
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_zero_load_gives_zero_solution():
    tri = generate_square_mesh(2)
    system = assemble(tri, _zeros_field())
    assert np.abs(system.b).max() == 0.0
    result = solve_system(system)
    assert np.abs(result.u).max() == 0.0
    assert result.iterations == 0


def test_cg_identity_converges_in_one_step():
    b = np.arange(1.0, 11.0)
    x, info = solve_cg(sp.identity(10, format="csr"), b)
    assert info["iterations"] == 1
    assert np.allclose(x, b, rtol=0, atol=1e-15)


def test_cg_reports_the_true_residual_it_stopped_on():
    _, system = _assembled(8)
    result = solve_system(system, tol=1e-10)
    assert result.method == "pcg"
    recomputed = float(np.linalg.norm(system.b - system.A @ result.u)) / float(
        np.linalg.norm(system.b)
    )
    assert result.true_rel_residual == recomputed
    assert recomputed <= 1e-10


@pytest.mark.parametrize("cond", [1e5, 1e6])
def test_cg_does_not_accept_a_drifted_recursive_residual(cond):
    # on these ill-conditioned systems the recursive residual reaches
    # 1e-12 while b - A x never gets below it; CG must go on to its cap
    # of max(n, 100 sqrt(n)) = 547 iterations and raise
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    A = sp.csr_matrix((q * np.logspace(0, np.log10(cond), 30)) @ q.T)
    A = (A + A.T) / 2
    b = rng.standard_normal(30)
    iterates = []
    with pytest.raises(RuntimeError, match="did not converge in 547 iterations"):
        solve_cg(A, b, tol=1e-12, callback=iterates.append)
    true = [float(np.linalg.norm(b - A @ x)) / float(np.linalg.norm(b)) for x in iterates]
    assert len(true) == 547 and min(true) > 1e-12


def test_cg_rejects_non_spd_input():
    A = sp.diags([1.0, -2.0, 3.0]).tocsr()
    with pytest.raises(ValueError, match="diagonal has non-positive"):
        solve_cg(A, np.ones(3))
    # indefinite with positive diagonal trips the curvature guard
    B = sp.csr_matrix(np.array([[1.0, 4.0], [4.0, 1.0]]))
    with pytest.raises(ValueError, match="non-positive curvature"):
        solve_cg(B, np.array([1.0, 0.0]))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_cg_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match=r"^tol must be positive and finite, got "):
        solve_cg(sp.identity(3, format="csr"), np.ones(3), tol=tol)


def test_cg_stops_at_a_non_finite_preconditioned_residual():
    def infinite(r):
        return np.full_like(r, np.inf)

    with pytest.raises(RuntimeError, match=r"non-finite rz \(inf\) at iteration 1 \(n=4\)"):
        solve_cg(sp.identity(4, format="csr"), np.ones(4), precondition=infinite)


def _sliver(t: Fraction) -> Triangulation:
    """Diagonal m = 8 with vertex 40 = (1/2, 1/2) moved a fraction t toward
    the midpoint of the opposite edge (39, 49) of its cell (39, 40, 49)."""
    base = generate_square_mesh(8, DIAGONAL)
    assert base.vertices[40] == (Fraction(1, 2), Fraction(1, 2))
    assert (39, 40, 49) in [tuple(c) for c in base.cells]
    (ax, ay), (bx, by), (vx, vy) = (base.vertices[i] for i in (39, 49, 40))
    vertices = list(base.vertices)
    vertices[40] = (vx + t * ((ax + bx) / 2 - vx), vy + t * ((ay + by) / 2 - vy))
    return Triangulation(vertices, base.cells)


def test_pcg_converges_on_a_shape_ratio_40_sliver():
    # t = 0.9: kappa(A) is about 2.9e7, and PCG still meets tol 1e-10 and
    # agrees with the oracle
    tri = _sliver(Fraction(9, 10))
    prod = build_product_space(tri)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    result = solve_system(system, tol=1e-10)
    assert result.method == "pcg"
    assert result.true_rel_residual <= 1e-10
    oracle = solve_oracle(system, build_constraints(tri, prod))
    diff = oracle.x_cell - result.u_cell
    energy = broken_energy_product(oracle.x_cell, oracle.x_cell, prod)
    assert math.sqrt(max(broken_energy_product(diff, diff, prod), 0.0) / energy) <= 1e-8


def test_pcg_stops_at_the_first_non_finite_value_on_a_sliver():
    # shape ratio 133: the PCG recurrences overflow long before the
    # iteration cap of 2,525, and a NaN residual never meets the stopping
    # test, so only the non-finite check stops PCG before the cap
    system = assemble(_sliver(Fraction(97, 100)), get_field("polyflow"))
    assert max(len(system.basis), int(100 * math.sqrt(len(system.basis)))) == 2525
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"non-finite (rz|pAp|residual) ") as exc:
            solve_system(system, tol=1e-10)
    iteration = int(re.search(r"at iteration (\d+) ", str(exc.value)).group(1))
    assert iteration < 2525


def test_cg_matches_direct_solve():
    _, system = _assembled(2)
    x, info = solve_cg(system.A, system.b, tol=1e-12)
    direct = np.linalg.solve(system.A.toarray(), system.b)
    assert np.abs(x - direct).max() <= 1e-10 * np.abs(direct).max()


def test_cg_raises_when_fallback_is_disabled():
    # there is no dense fallback: a stalled CG raises, whatever the size
    # of the system
    _, system = _assembled(2)
    with pytest.raises(RuntimeError, match=r"did not converge in 3 iterations \(relative residual"):
        solve_cg(system.A, system.b, maxiter=3)


def test_cg_error_decreases_monotonically_in_energy_norm():
    _, system = _assembled(2)
    A = system.A.toarray()
    exact = np.linalg.solve(A, system.b)
    history = []
    solve_cg(system.A, system.b, callback=history.append)
    energies = [float((x - exact) @ A @ (x - exact)) for x in history]
    for a, b in zip(energies, energies[1:]):
        assert b <= a * (1 + 1e-9)
    assert energies[-1] <= 1e-16 * energies[0]


def test_oracle_agrees_with_reduced_solve():
    tri = generate_square_mesh(2)
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    oracle = solve_oracle(system, cons)
    assert oracle.constraint_residual <= 1e-10

    result = solve_system(system, tol=1e-13)
    diff = oracle.x_cell - result.u_cell
    num = math.sqrt(max(broken_energy_product(diff, diff, prod), 0.0))
    den = math.sqrt(broken_energy_product(oracle.x_cell, oracle.x_cell, prod))
    assert num / den <= 1e-8

    # Galerkin identity: the energy of the solution equals the load action
    lhs = broken_energy_product(oracle.x_cell, oracle.x_cell, prod)
    rhs = float(system.b_cell @ oracle.x_cell)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _saddle_point_reference(system, B) -> tuple[np.ndarray, np.ndarray]:
    """(x, multipliers) from one sparse LU of the whole indefinite system."""
    K = sp.bmat([[system.A_cell, B.T], [B, None]], format="csc")
    sol = spla.spsolve(K, np.concatenate([system.b_cell, np.zeros(B.shape[0])]))
    return sol[: system.prod.dim], sol[system.prod.dim :]


@pytest.mark.parametrize("name", sorted(MESHES))
def test_cell_eliminated_oracle_matches_the_saddle_point_solve(name):
    tri = MESHES[name]()
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    oracle = solve_oracle(system, cons)
    x, y = _saddle_point_reference(system, cons.B)
    diff = oracle.x_cell - x
    gap = math.sqrt(broken_energy_product(diff, diff, prod) / broken_energy_product(x, x, prod))
    assert gap <= 1e-12
    assert np.abs(oracle.multipliers - y).max() <= 1e-10 * np.abs(y).max()
    assert oracle.constraint_residual <= 1e-13


def test_oracle_raises_the_rank_certificate_error_on_repeated_rows():
    tri = generate_square_mesh(4)
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    assert len(solve_oracle(system, cons).multipliers) == cons.rows
    # div rows first, then all of B: each div row comes again, exact or scaled
    div_rows = cons.B[: len(tri.vertices)]
    for repeat in (div_rows, 2 * div_rows):
        stacked = ConstraintSystem(prod, sp.vstack([repeat, cons.B]).tocsr())
        for call in (stacked.rank, lambda: solve_oracle(system, stacked)):
            with pytest.raises(ValueError, match=r"^rank audit: column \d+ of B D has 2 nonzeros"):
                call()


def _count_certificates_and_factors(monkeypatch) -> tuple[dict, list]:
    """Count rank certificates and factorizations, and track every HybridSystem."""
    runs = {"certificate": 0, "factor": 0}
    hybrids = []

    def counted(name, original):
        def call(*args):
            runs[name] += 1
            return original(*args)

        return call

    certificate = counted("certificate", hodgefem.globalspace._rank_certificate)
    monkeypatch.setattr(hodgefem.globalspace, "_rank_certificate", certificate)
    factor = counted("factor", hodgefem.solver._factor_spd)
    monkeypatch.setattr(hodgefem.solver, "_factor_spd", factor)
    init = HybridSystem.__init__

    def tracked(self, prod, cons):
        init(self, prod, cons)
        hybrids.append(weakref.ref(self))

    monkeypatch.setattr(HybridSystem, "__init__", tracked)
    return runs, hybrids


def test_the_certificate_runs_once_and_the_study_factors_once_per_mesh(monkeypatch):
    runs, hybrids = _count_certificates_and_factors(monkeypatch)
    rows = study(get_field("polyflow"), [2, 4], tol=1e-10, oracle_max_m=4)
    for row in rows:
        assert row.oracle_gap is not None
        # no factorization outlives the row that used it
        assert all(ref() is None for ref in hybrids)
    assert runs == {"certificate": 2, "factor": 2}
    assert len(hybrids) == 2

    tri = generate_square_mesh(4)
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    runs.update(certificate=0, factor=0)
    assert cons.rank() == cons.rows
    solve_oracle(system, cons)
    assert cons.nullity() == prod.dim - cons.rows
    assert runs == {"certificate": 1, "factor": 1}


def test_the_solve_the_audit_and_the_oracle_certify_and_factor_once(monkeypatch):
    runs, hybrids = _count_certificates_and_factors(monkeypatch)
    tri = generate_jittered_mesh(4, 1)
    prod = build_product_space(tri)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    solve_system(system)
    cons = build_constraints(tri, prod)
    assert cons.rank() == cons.rows
    oracle = solve_oracle(system, cons)
    assert runs == {"certificate": 1, "factor": 1}
    assert len(hybrids) == 1 and hybrids[0]() is None
    assert oracle.constraint_residual <= 1e-13


@pytest.mark.parametrize(
    "make",
    [lambda: generate_square_mesh(16), lambda: generate_jittered_mesh(16, 1), MESHES["coprime4"]],
    ids=["diagonal16", "jitter16", "coprime4"],
)
def test_the_recorded_oracle_is_bitwise_a_fresh_factorization(make, monkeypatch):
    tri = make()
    prod = build_product_space(tri)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    solve_system(system)
    cons = build_constraints(tri, prod)
    runs, hybrids = _count_certificates_and_factors(monkeypatch)
    recorded = solve_oracle(system, cons)
    assert runs == {"certificate": 0, "factor": 0}
    # a fresh factorization of the same B gives the same bits
    x, y = HybridSystem(prod, cons).solve(system.b_cell)
    assert runs == {"certificate": 0, "factor": 1}
    resid = float(np.linalg.norm(cons.B @ x)) / max(1.0, float(np.linalg.norm(x)))
    # an equal copy of B is another object: certified and factored once more, same bits
    copied = solve_oracle(system, ConstraintSystem(prod, cons.B.copy()))
    assert runs == {"certificate": 1, "factor": 2}
    assert len(hybrids) == 2 and all(ref() is None for ref in hybrids)
    for oracle in (recorded, copied):
        assert np.array_equal(oracle.x_cell, x) and np.array_equal(oracle.multipliers, y)
        assert oracle.constraint_residual == resid


@pytest.mark.parametrize("entry", ["HybridSystem", "solve_oracle", "assemble"])
def test_inputs_from_another_mesh_of_the_same_size_are_rejected(entry):
    # jittered m = 4 meshes of two seeds: equal sizes, so only the mesh check
    # stops B of one from being applied to a field of the other
    field = get_field("polyflow")
    tri, other = generate_jittered_mesh(4, 1), generate_jittered_mesh(4, 2)
    prod, other_prod = build_product_space(tri), build_product_space(other)
    system = assemble(tri, field, prod=prod)
    cons = build_constraints(other, other_prod)
    assert cons.B.shape[1] == prod.dim
    calls = {
        "HybridSystem": (lambda: HybridSystem(prod, cons), "the constraints"),
        "solve_oracle": (lambda: solve_oracle(system, cons), "the constraints"),
        "assemble": (
            lambda: assemble(tri, field, prod=prod, basis=build_global_basis(other, other_prod)),
            "the basis",
        ),
    }
    call, what = calls[entry]
    with pytest.raises(ValueError, match=f"^{what} was built on another triangulation$"):
        call()


def test_oracle_raises_the_rank_certificate_error_on_a_dependent_row():
    tri = generate_square_mesh(4)
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    dependent = ConstraintSystem(prod, sp.vstack([cons.B, cons.B[3] + cons.B[4]]).tocsr())
    with pytest.raises(ValueError, match=r"^rank audit: column \d+ of B D has 2 nonzeros"):
        solve_oracle(system, dependent)


def test_error_norms_of_zero_candidate_recover_field_energy():
    tri = generate_square_mesh(2)
    prod = build_product_space(tri)
    field = get_field("polyflow")
    u_cell = global_interpolate(as_callback(field), tri, prod)
    errs = error_norms(np.zeros(prod.dim), prod, field)
    # against the zero candidate the error is the field's own broken norm
    assert errs["energy"] > 0.5
    assert errs["energy"] ** 2 == pytest.approx(
        errs["l2"] ** 2 + errs["rot"] ** 2 + errs["div"] ** 2, rel=1e-12
    )
    errs_zero_field = error_norms(u_cell, prod, _zeros_field())
    assert errs_zero_field["energy"] ** 2 == pytest.approx(
        broken_energy_product(u_cell, u_cell, prod), rel=1e-10
    )


def test_load_vector_and_error_norms_match_per_cell_tables(mesh):
    prod = build_product_space(mesh)
    field = get_field("polyflow")
    b = cell_load_vector(prod, field).reshape(-1, 6)
    u = np.random.default_rng(7).standard_normal(prod.dim)
    squares = np.zeros(3)
    ref = reference_element(2, 1)
    for c in range(len(mesh.cells)):
        # each cell's own node tables: the stacked tables on a stack of one
        matrix = local_element(simplex(mesh, c), 1)
        S, E = matrix.scaling.floats()
        verts = np.array([[[float(x) for x in v] for v in matrix.simplex.centered]])
        tab = ref.tables(verts, np.array([float(matrix.simplex.volume)]), S[None], E[None], 6)
        tab = {key: value[0] for key, value in tab.items()}
        w = tab["weights"]
        pts = prod.barycenters[c] + tab["centered"]
        want = np.einsum("q,iqx,qx->i", w, tab["val"], field.f(pts))
        assert np.abs(b[c] - want).max() <= 1e-12 * np.abs(want).max()
        uc = u[6 * c : 6 * c + 6]
        uh_v = np.einsum("i,iqx->qx", uc, tab["val"])
        uh_d, uh_g = uc @ tab["dval"], uc @ tab["gval"]
        squares += [
            w @ ((uh_v - field.value(pts)) ** 2).sum(axis=1),
            w @ (uh_d - field.rot(pts)) ** 2,
            w @ (uh_g + field.div(pts)) ** 2,
        ]
    errs = error_norms(u, prod, field)
    want = dict(zip(("l2", "rot", "div"), np.sqrt(squares)), energy=np.sqrt(squares.sum()))
    for key, value in want.items():
        assert errs[key] == pytest.approx(value, rel=1e-12)


def test_stacked_node_tables_run_once_per_order(monkeypatch):
    """One stacked table build per order for all templates, and each derived
    float table (load, error norms, interpolation) once per order too."""
    tri = MESHES["jitter4"]()
    prod = build_product_space(tri)
    calls = []

    def counting(name, build):
        def wrapped(*args):
            calls.append((name, args[-1]))
            return build(*args)

        return wrapped

    tables = hodgefem.element.ReferenceElement.tables
    monkeypatch.setattr(hodgefem.element.ReferenceElement, "tables", counting("tables", tables))
    for module, name in (
        (hodgefem.solver, "_load_table"),
        (hodgefem.solver, "_shape_table"),
        (hodgefem.globalspace, "_interpolation_table"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    field = get_field("polyflow")
    for order in (6, 4):
        for _ in range(2):
            assemble(tri, field, quad_order=order, prod=prod)
            u = global_interpolate(as_callback(field), tri, prod, quad_order=order)
            error_norms(u, prod, field, quad_order=order)
    assert len(prod.templates) == 32
    names = ("tables", "_load_table", "_interpolation_table", "_shape_table")
    assert sorted(calls) == sorted((name, order) for name in names for order in (6, 4))


def test_interpolating_affine_field_is_exact():
    tri = generate_square_mesh(2)
    prod = build_product_space(tri)
    field = get_field("affine")
    u_cell = global_interpolate(as_callback(field), tri, prod)
    errs = error_norms(u_cell, prod, field)
    assert errs["energy"] <= 1e-12


def _counting_field(base: SmoothField) -> tuple[SmoothField, Counter]:
    """``base`` with value, rot and div counting their calls."""
    calls = Counter()

    def counted(name):
        evaluate = getattr(base, name)

        def wrapped(pts):
            calls[name] += 1
            return evaluate(pts)

        return wrapped

    names = ("value", "rot", "div")
    field = dataclasses.replace(base, name="counting", **{n: counted(n) for n in names})
    return field, calls


def test_a_field_is_evaluated_at_the_nodes_once_per_space_and_order():
    field, calls = _counting_field(get_field("polyflow"))
    assert as_callback(field) is as_callback(field)
    tri = generate_square_mesh(4)
    prod = build_product_space(tri)
    u = global_interpolate(as_callback(field), tri, prod)
    error_norms(u, prod, field)
    error_norms(np.zeros(prod.dim), prod, field)
    assert calls == {"value": 1, "rot": 1, "div": 1}
    error_norms(u, prod, field, quad_order=4)
    assert calls == {"value": 2, "rot": 2, "div": 2}
    error_norms(u, build_product_space(tri), field)
    assert calls == {"value": 3, "rot": 3, "div": 3}
    cached = prod.node_values(as_callback(field), 6)
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 1.0
    assert calls == {"value": 3, "rot": 3, "div": 3}


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_square_mesh(8, DIAGONAL),
        lambda: generate_square_mesh(4, CRISSCROSS),
        lambda: generate_jittered_mesh(8, 1),
    ],
    ids=["diagonal8", "crisscross4", "jitter8"],
)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_cached_node_values_give_the_in_place_error_norms_and_interpolant_bit_for_bit(make, name):
    """The cached node values against the field evaluated in place at
    ``prod.nodes``, compared with ==."""
    field = FIELDS[name]
    tri = make()
    prod = build_product_space(tri)
    flat = prod.nodes(6).reshape(-1, 2)

    def in_place_errors(u_cell):
        diff = (prod.by_template(u_cell.reshape(-1, 6)) @ prod.derived(_shape_table, 6)).reshape(-1, 4)
        diff[:, :2] -= field.value(flat)
        diff[:, 2] -= field.rot(flat)
        diff[:, 3] += field.div(flat)
        sums = prod.tables(6)["weights"][prod.template_index].ravel() @ np.square(diff)
        l2_sq, rot_sq, div_sq = float(sums[0] + sums[1]), float(sums[2]), float(sums[3])
        return {
            "l2": math.sqrt(l2_sq),
            "rot": math.sqrt(rot_sq),
            "div": math.sqrt(div_sq),
            "energy": math.sqrt(l2_sq + rot_sq + div_sq),
        }

    values = node_values(as_callback(field), prod.nodes(6)).reshape(len(tri.cells), -1)
    want = (prod.by_template(values) @ prod.derived(_interpolation_table, 6)).ravel()
    u_int = global_interpolate(as_callback(field), tri, prod)
    assert np.array_equal(u_int, want)
    u_rand = np.random.default_rng(11).standard_normal(prod.dim)
    for u_cell in (u_int, u_rand):
        assert error_norms(u_cell, prod, field) == in_place_errors(u_cell)


def test_error_norms_rejects_a_coefficient_vector_of_the_wrong_length():
    tri = generate_square_mesh(2)
    prod = build_product_space(tri)
    # 45 and 42 entries failed inside numpy's reshape and scipy's CSR constructor
    for n in (45, 42, 54):
        with pytest.raises(ValueError, match=rf"^u_cell has length {n}, expected 6 \* cells = 48$"):
            error_norms(np.zeros(n), prod, get_field("polyflow"))


def test_broken_energy_product_rejects_a_coefficient_vector_of_the_wrong_length():
    tri = generate_square_mesh(2)
    prod = build_product_space(tri)
    u = np.ones(prod.dim)
    with pytest.raises(ValueError, match=r"^v_cell has length 42, expected 6 \* cells = 48$"):
        broken_energy_product(u, np.ones(42), prod)
    with pytest.raises(ValueError, match=r"^u_cell has length 45, expected 6 \* cells = 48$"):
        broken_energy_product(np.ones(45), u, prod)
    with pytest.raises(ValueError, match=r"^u_cell has length 54, expected 6 \* cells = 48$"):
        broken_energy_product(np.ones(54), np.ones(54), prod)


def test_interpolation_study_rate():
    rows = list(study(get_field("polyflow"), [2, 4, 8]))
    assert [r.m for r in rows] == [2, 4, 8]
    assert rows[0].h == pytest.approx(2 * rows[1].h)
    assert rows[0].errors["energy"] > rows[1].errors["energy"] > rows[2].errors["energy"]
    rate = fit_rate(rows)
    assert 0.9 <= rate <= 1.2
    with pytest.raises(ValueError, match="two mesh levels"):
        fit_rate(rows[:1])


def test_fit_rate_needs_two_distinct_mesh_sizes():
    # a repeated level once gave a rate from a degenerate least-squares fit
    rows = [StudyRow(m, 1 / m, 6, {"energy": 1 / m}) for m in (2, 4)]
    assert fit_rate(rows) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="two mesh levels of distinct h"):
        fit_rate([rows[0], rows[0]])


def test_solver_study_tracks_oracle_and_interpolant():
    field = get_field("polyflow")
    rows = list(study(field, [2, 4], tol=1e-10, oracle_max_m=4))
    for row in rows:
        assert row.cg_iters is not None and row.cg_iters > 0
        assert row.oracle_gap is not None and row.oracle_gap <= 1e-6
        assert row.oracle_residual is not None and row.oracle_residual <= 1e-10
        assert row.method == "pcg" and row.wall_ms > 0
    interp = study(field, [2, 4])
    for solved, best in zip(rows, interp):
        # quasi-optimality with a modest constant
        assert solved.errors["energy"] <= 10 * best.errors["energy"]
        assert solved.errors["energy"] >= 0.99 * best.errors["energy"]


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_reduced_solve_agrees_with_the_oracle_on_jittered_meshes(m, seed):
    tri = generate_jittered_mesh(m, seed)
    prod = build_product_space(tri)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    oracle = solve_oracle(system, build_constraints(tri, prod))
    result = solve_system(system, tol=1e-12)
    assert result.method == "pcg"
    diff = oracle.x_cell - result.u_cell
    num = math.sqrt(max(broken_energy_product(diff, diff, prod), 0.0))
    den = math.sqrt(broken_energy_product(oracle.x_cell, oracle.x_cell, prod))
    assert num / den <= 1e-8


COARSE_MESHES = {**MESHES, "crisscross3": lambda: generate_square_mesh(3, CRISSCROSS)}
LEFT_INVERSE_MESHES = {**COARSE_MESHES, "jitter32": lambda: generate_jittered_mesh(32, 1)}


def _p1_interpolant(tri, prod) -> np.ndarray:
    """The interpolant of hat_v t for every free direction t of every vertex v.

    An interior vertex has x and y; a boundary vertex other than a corner
    has the tangent of its side of the unit square; a corner has none, so
    every field has zero normal trace.  Each cell's block is the exact
    interpolant of hat_s dx^x on its template's first cell, by the Fraction
    path on that cell's local element.
    """
    blocks = []
    for cell in prod.templates.tolist():
        matrix = local_element(simplex(tri, cell), 1)
        hats = barycentric_coordinates(matrix.simplex)
        fields = [PolyForm(2, 1, {(x,): lam}) for lam in hats for x in (1, 2)]
        coeffs = [solve_dofs(dof_values(f, matrix), matrix) for f in fields]
        blocks.append([[float(c) for c in f] for f in coeffs])
    local = np.transpose(blocks, (0, 2, 1)).reshape(-1, 6, 3, 2)[prod.template_index]
    columns = []
    for v, (x, y) in enumerate(tri.vertices):
        on_side = (x in (0, 1), y in (0, 1))
        directions = {(False, False): [(1.0, 0.0), (0.0, 1.0)], (True, False): [(0.0, 1.0)]}
        directions[False, True] = [(1.0, 0.0)]
        for direction in directions.get(on_side, []):
            column = np.zeros(prod.dim)
            for c, cell in enumerate(tri.cells):
                if v in cell:
                    s = list(cell).index(v)
                    column[6 * c : 6 * c + 6] = local[c, :, s] @ np.array(direction)
            columns.append(column)
    return np.column_stack(columns)


@pytest.mark.parametrize("name", sorted(COARSE_MESHES))
def test_coarse_prolongation_gives_the_p1_interpolant_in_the_kernel(name):
    # the P1 coarse space is gone, but its fields still lie in the kernel,
    # and the kernel coordinates K now carry them: Phi (K Pi) = Pi
    tri = COARSE_MESHES[name]()
    prod = build_product_space(tri)
    basis = build_global_basis(tri, prod)
    Pi = _p1_interpolant(tri, prod)
    boundary = len(tri.vertices) - len(tri.interior_vertices)
    assert Pi.shape == (prod.dim, 2 * len(tri.interior_vertices) + boundary - 4)
    assert abs(build_constraints(tri, prod).B @ Pi).max() <= 1e-12
    K = _kernel_coordinates(basis, prod.block_diagonal(prod.whitney))
    assert abs(basis.Phi @ (K @ Pi) - Pi).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(COARSE_MESHES))
def test_cellwise_constants_prolong_exactly_and_correct_symmetrically(name):
    tri = COARSE_MESHES[name]()
    prod = build_product_space(tri)
    basis = build_global_basis(tri, prod)
    cons = build_constraints(tri, prod)
    nc = len(tri.cells)
    # E: shape slots 0 and 1 of every cell, the cellwise constants
    slots = np.arange(prod.dim).reshape(nc, 6)[:, :2].ravel()
    E = sp.csr_matrix((np.ones(2 * nc), (slots, np.arange(2 * nc))), shape=(prod.dim, 2 * nc))
    # the cellwise constants in the kernel: a space of dimension cells - 1
    Z = scipy.linalg.null_space((cons.B @ E).toarray())
    assert Z.shape[1] == nc - 1
    Ey = E @ (Z @ np.random.default_rng(5).standard_normal(nc - 1))
    assert abs(cons.B @ Ey).max() <= 1e-12 * abs(Ey).max()
    K = _kernel_coordinates(basis, prod.block_diagonal(prod.whitney))
    assert np.linalg.norm(basis.Phi @ (K @ Ey) - Ey) <= 1e-10 * np.linalg.norm(Ey)

    # H = W (I - C^T S^-1 C) W^T, the cell-eliminated solve, is symmetric
    # positive semidefinite with the kernel as its range, and H A_cell is
    # the identity on it, so every kernel constant is corrected exactly
    hybrid = HybridSystem(prod, cons)
    H = _dense(lambda b: hybrid.solve(b)[0], prod.dim)
    assert abs(H - H.T).max() <= 1e-12 * abs(H).max()
    w = np.linalg.eigvalsh((H + H.T) / 2)
    assert w[0] >= -1e-12 * w[-1]
    assert np.count_nonzero(w > 1e-8 * w[-1]) == len(basis)
    A_cell = prod.block_diagonal(prod.gram)
    assert np.linalg.norm(H @ (A_cell @ Ey) - Ey) <= 1e-10 * np.linalg.norm(Ey)


@pytest.mark.parametrize("name", sorted(LEFT_INVERSE_MESHES))
def test_kernel_coordinates_left_invert_phi(name):
    # K Phi = I: the fan sums of the Whitney values give back the kernel
    # coordinates of every basis function
    tri = LEFT_INVERSE_MESHES[name]()
    prod = build_product_space(tri)
    basis = build_global_basis(tri, prod)
    K = _kernel_coordinates(basis, prod.block_diagonal(prod.whitney))
    assert abs(K @ basis.Phi - sp.identity(len(basis))).max() <= 1e-14


def test_jittered_m16_converges_within_the_cap():
    # diagonal scaling alone needs 6,422 iterations here, over the cap of 5,057
    tri = generate_jittered_mesh(16, 1)
    system = assemble(tri, get_field("polyflow"))
    result = solve_system(system, tol=1e-10)
    assert result.method == "pcg" and result.true_rel_residual <= 1e-10
    assert result.iterations <= 100 * math.sqrt(len(system.basis))


@pytest.mark.parametrize(
    "pattern, ms",
    [(DIAGONAL, (4, 8, 16, 32)), (CRISSCROSS, (2, 4, 8, 16)), ("jittered", (16, 32))],
)
def test_pcg_iterations_stay_flat_under_refinement(pattern, ms):
    for m in ms:
        tri = generate_jittered_mesh(m, 1) if pattern == "jittered" else generate_square_mesh(m, pattern)
        system = assemble(tri, get_field("polyflow"))
        result = solve_system(system, tol=1e-10)
        assert result.iterations <= 3, f"{pattern} m={m}: {result.iterations} iterations"


def _dense(apply, n: int) -> np.ndarray:
    return np.column_stack([apply(e) for e in np.eye(n)])


def _preconditioner(system, monkeypatch):
    """The preconditioner that ``solve_system`` hands to ``solve_cg``."""
    seen = []
    real = hodgefem.solver.solve_cg

    def recording(A, b, precondition, **kwargs):
        seen.append(precondition)
        return real(A, b, precondition=precondition, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(hodgefem.solver, "solve_cg", recording)
        solve_system(system)
    return seen[0]


@pytest.mark.parametrize(
    "pattern, m", [(DIAGONAL, 4), (DIAGONAL, 8), (CRISSCROSS, 8), ("jittered", 8)]
)
def test_preconditioned_condition_number_is_bounded(pattern, m, monkeypatch):
    # M = K H K^T is A^-1 up to rounding
    tri = generate_jittered_mesh(m, 1) if pattern == "jittered" else generate_square_mesh(m, pattern)
    system = assemble(tri, get_field("polyflow"))
    A = system.A.toarray()
    M = _dense(_preconditioner(system, monkeypatch), len(A))
    chol = np.linalg.cholesky((M + M.T) / 2)
    w = np.linalg.eigvalsh(chol.T @ A @ chol)
    assert w[0] > 0 and w[-1] / w[0] <= 1 + 1e-8


@pytest.mark.parametrize("extra", ["repeat", "sum"])
def test_a_singular_constant_constraint_matrix_raises(extra, monkeypatch):
    # the cellwise-constant constraints are no longer factored on their
    # own; their place is taken by S = C C^T, which needs B to have full
    # row rank.  B gets one more dependent row: a repeated row, exact or
    # scaled by 2; or the sum of two rows.  Each would make S singular,
    # and solve_system raises the rank certificate's error before S is
    # factored
    system = assemble(generate_square_mesh(4), get_field("polyflow"))
    build = hodgefem.solver.build_constraints

    def extended(row):
        def build_with_row(tri, prod):
            cons = build(tri, prod)
            return ConstraintSystem(prod, sp.vstack([cons.B, row(cons.B)]).tocsr())

        return build_with_row

    if extra == "repeat":
        rows = [lambda B: B[3], lambda B: 2 * B[3]]
    else:
        rows = [lambda B: B[3] + B[4]]
    for row in rows:
        monkeypatch.setattr(hodgefem.solver, "build_constraints", extended(row))
        with pytest.raises(ValueError, match=r"^rank audit: column \d+ of B D has 2 nonzeros"):
            solve_system(system)


def test_a_wrong_preconditioner_makes_pcg_slow_not_wrong(monkeypatch):
    # halving the multiplier correction gives H' = W (I - C^T S^-1 C / 2) W^T,
    # still SPD but no longer Phi A^-1 Phi^T: PCG must still reach the
    # oracle's answer, only in more iterations
    tri = generate_jittered_mesh(4, 1)
    prod = build_product_space(tri)
    system = assemble(tri, get_field("polyflow"), prod=prod)
    oracle = solve_oracle(system, build_constraints(tri, prod))
    exact = solve_system(system, tol=1e-12)
    solve = HybridSystem.solve

    def half(self, b_cell):
        x, y = solve(self, b_cell)
        return x + 0.5 * (self.W @ (self.C.T @ y)), y

    monkeypatch.setattr(HybridSystem, "solve", half)
    wrong = solve_system(system, tol=1e-12)
    assert wrong.iterations > exact.iterations
    diff = oracle.x_cell - wrong.u_cell
    energy = broken_energy_product(oracle.x_cell, oracle.x_cell, prod)
    assert math.sqrt(broken_energy_product(diff, diff, prod) / energy) <= 1e-8

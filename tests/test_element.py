"""Local shape space, degrees of freedom, and the two interpolation paths."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hodgefem.element import (
    DIRECT,
    FOURSTEP,
    H2D,
    KAPPA,
    P0,
    STARKAPPA,
    DofMatrix,
    FormCallback,
    ReferenceElement,
    build_h2d_form,
    build_h2delta_form,
    dof_values,
    form_values,
    local_element,
    reference_element,
    solve_dofs,
)
from hodgefem.forms import (
    PolyForm,
    Polynomial,
    codifferential,
    codifferential_green,
    exterior_derivative,
    hodge_star,
    koszul,
    multi_indices,
)
import hodgefem.element
import hodgefem.simplices
import hodgefem.verify
from hodgefem.simplices import Simplex
from hodgefem.verify import unisolvence_suite

from reference import exact, l2_gram, shape_space, solve_rational

F = Fraction


def rand_simplex(n, rng):
    while True:
        verts = [
            tuple(F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(n))
            for _ in range(n + 1)
        ]
        try:
            return Simplex(verts)
        except ValueError:
            continue


def reference_triangle():
    return Simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])


def test_block_dimensions():
    rng = random.Random(21)
    expect = {(2, 1): (2, 1, 1, 2), (3, 1): (3, 3, 1, 3), (3, 2): (3, 1, 3, 3)}
    for (n, k), sizes in expect.items():
        space = shape_space(local_element(rand_simplex(n, rng), k))
        blocks = [space.blocks[b] for b in (P0, KAPPA, STARKAPPA, H2D)]
        got = tuple(len(space.basis[r.start : r.stop]) for r in blocks)
        assert got == sizes
        assert space.dim == sum(sizes)


def test_k_out_of_range():
    T = reference_triangle()
    for k in (0, 2):
        with pytest.raises(ValueError):
            local_element(T, k)


def test_quadratic_enrichment_identities():
    rng = random.Random(22)
    for n in (2, 3):
        T = rand_simplex(n, rng)
        for k in range(1, n):
            for alpha in multi_indices(k, n):
                md = build_h2d_form(alpha, T)
                assert codifferential_green(md).is_zero()
                assert exterior_derivative(md).comps  # linear, nonzero
                mdel = build_h2delta_form(alpha, T)
                assert exterior_derivative(mdel).is_zero()
                want = 2 * koszul(PolyForm.basis(n, alpha))
                if n % 2:
                    want = -want
                assert codifferential(mdel) == want


def test_unisolvence_exact_projection():
    """Interpolating a shape basis form returns exactly the unit vector."""
    rng = random.Random(23)
    T = rand_simplex(2, rng)
    matrix = local_element(T, 1)
    space = shape_space(matrix)
    for i, mu in enumerate(space.basis):
        coeffs = solve_dofs(dof_values(mu, matrix), matrix, method=DIRECT)
        want = [F(1) if j == i else F(0) for j in range(6)]
        assert list(coeffs) == want


def test_fourstep_equals_direct_exactly():
    rng = random.Random(24)
    for _ in range(10):
        T = rand_simplex(2, rng)
        matrix = local_element(T, 1)
        target = matrix.combine([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)])
        dofs = dof_values(target, matrix)
        a = solve_dofs(dofs, matrix, method=DIRECT)
        b = solve_dofs(dofs, matrix, method=FOURSTEP)
        assert list(a) == list(b)


def test_interpolate_returns_equal_form():
    rng = random.Random(25)
    T = rand_simplex(2, rng)
    matrix = local_element(T, 1)
    target = matrix.combine([F(3), F(-1), F(2), F(1, 2), F(0), F(5)])
    assert matrix.combine(solve_dofs(dof_values(target, matrix), matrix)) == target


def test_quadrature_dofs_match_the_exact_dofs():
    """Float quadrature of the Green functionals (the global interpolation's
    path, on a stack of one element) agrees with the rational DOFs."""
    rng = random.Random(26)
    T = rand_simplex(2, rng)
    matrix = local_element(T, 1)
    target = matrix.combine([F(1), F(2), F(-1), F(1, 3), F(2), F(-3)])
    S, E = matrix.scaling.floats()
    verts = np.array([[[float(x) for x in v] for v in T.centered]])
    tab = reference_element(2, 1).tables(verts, np.array([float(T.volume)]), S[None], E[None], 6)
    nodes = tab["centered"][0]  # the polynomials are in centered coordinates
    graph = (target, exterior_derivative(target), codifferential_green(target))
    values = np.concatenate([form_values(w, nodes) for w in graph], axis=-1)
    approx = np.einsum("qc,qcj->j", values, tab["rows"][0])
    exact = np.array([float(v) for v in dof_values(target, matrix)])
    scale = max(1.0, np.max(np.abs(exact)))
    assert np.max(np.abs(exact - approx)) <= 1e-12 * scale

    coeffs = np.linalg.solve(matrix.as_float, approx)
    want = np.array([1, 2, -1, 1 / 3, 2, -3], dtype=float)
    assert np.max(np.abs(coeffs - want)) <= 1e-10


def test_float_coefficients_are_not_finished_in_fractions():
    T = reference_triangle()
    matrix = local_element(T, 1)
    space = shape_space(matrix)
    with pytest.raises(TypeError):
        space.combine([1.0, 0, 0, 0, 0, 0])
    assert space.combine([F(1), 0, 0, 0, 0, 0]) == space.basis[0]
    # the exact path takes no float: float DOF values are refused, not solved
    for values in ([1.0] * 6, np.ones(6), [F(1)] * 5 + [np.float64(1.0)]):
        for method in (DIRECT, FOURSTEP):
            with pytest.raises(TypeError, match=r"exact \(Fraction or int\) DOF values, got"):
                solve_dofs(values, matrix, method=method)


@pytest.mark.parametrize("n", [2, 3])
def test_dof_values_of_a_callback_raise_naming_global_interpolate(n):
    """A FormCallback (on any element) has no exact DOFs: dof_values names
    the float path instead."""
    vertices = [tuple(F(int(i == j)) for j in range(n)) for i in range(-1, n)]
    matrix = local_element(Simplex(vertices), 1)
    cb = FormCallback(
        value=lambda x: np.zeros((len(x), n)),
        d=lambda x: np.zeros((len(x), n * (n - 1) // 2)),
        delta=lambda x: np.zeros((len(x), 1)),
    )
    with pytest.raises(TypeError, match="FormCallback are global_interpolate's"):
        dof_values(cb, matrix)
    # the exact path stays general
    vals = dof_values(PolyForm.basis(n, (1,)), matrix)
    assert len(vals) == len(matrix.rows) and all(isinstance(v, F) for v in vals)


@pytest.mark.parametrize("method", [DIRECT, FOURSTEP])
def test_solve_dofs_checks_the_count_of_its_values(method):
    """Too many or too few DOF values raise a ValueError naming the count."""
    matrix = local_element(reference_triangle(), 1)
    exact = dof_values(matrix.combine([F(1), F(2), F(-1), F(1, 3), F(2), F(-3)]), matrix)
    assert solve_dofs(exact, matrix, method=method) == [F(1), F(2), F(-1), F(1, 3), F(2), F(-3)]
    for values in (exact + [F(7)], exact[:5], []):
        with pytest.raises(ValueError, match=f"^expected 6 DOF values, got {len(values)}$"):
            solve_dofs(values, matrix, method=method)
    assert solve_dofs([1, 0, 0, 0, 0, 0], matrix, method=method) == solve_dofs(
        [F(1)] + [F(0)] * 5, matrix, method=method
    )


def test_scaled_conditioning_is_h_uniform():
    """Scaled DOF matrices keep one condition number across dyadic sizes."""
    conds = []
    for p in range(0, 7, 2):
        s = F(1, 2**p)
        T = Simplex([(F(0), F(0)), (s, F(0)), (F(0), s)])
        conds.append(np.linalg.cond(local_element(T, 1).as_float))
    assert max(conds) / min(conds) <= 1.0 + 1e-9


def _rand_cubic_form(n, k, rng):
    """A k-form with random cubic components: outside the shape space."""
    exps = [e for e in np.ndindex(*(4,) * n) if sum(e) <= 3]
    return PolyForm(
        n,
        k,
        {
            alpha: Polynomial(n, {e: F(rng.randint(-9, 9), rng.randint(1, 5)) for e in exps})
            for alpha in multi_indices(k, n)
        },
    )


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_exact_dof_values_equal_the_green_pairing_of_the_scaled_tests(n, k):
    """dof_values of a form outside the space against l2_gram of the Green rows
    of the scaled DOF test forms, built form by form: eta the constant
    (k+1)-forms and 1/h star koszul star of the constant k-forms, tau the
    constant (k-1)-forms and 1/h koszul of the constant k-forms."""
    rng = random.Random(100 * n + k)
    for _ in range(2):
        T = rand_simplex(n, rng)
        inv_h = 1 / T.h_scale
        assert inv_h != 1  # so dropping the 1/h of the koszul-type rows shows
        dx = [PolyForm.basis(n, alpha) for alpha in multi_indices(k, n)]
        etas = [PolyForm.basis(n, beta) for beta in multi_indices(k + 1, n)]
        etas += [inv_h * hodge_star(koszul(hodge_star(w))) for w in dx]
        taus = [PolyForm.basis(n, gamma) for gamma in multi_indices(k - 1, n)]
        taus += [inv_h * koszul(w) for w in dx]
        up, down = PolyForm.zero(n, k + 1), PolyForm.zero(n, k - 1)
        rows = [(eta, down, -codifferential_green(eta)) for eta in etas]
        rows += [(up, tau, -exterior_derivative(tau)) for tau in taus]
        mu = _rand_cubic_form(n, k, rng)
        graph = [(exterior_derivative(mu), codifferential_green(mu), mu)]
        want = [row[0] for row in l2_gram(rows, graph, T)]
        assert dof_values(mu, local_element(T, k)) == want


def test_unisolvence_suite_builds_one_dof_matrix_per_triangle(monkeypatch):
    """The local element is built once per triangle and reused by every check."""
    built = []
    scalings = []
    init = DofMatrix.__init__
    scaling = ReferenceElement.scaling

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_scaling(self, *args):
        scalings.append(1)
        return scaling(self, *args)

    monkeypatch.setattr(DofMatrix, "__init__", counting_init)
    monkeypatch.setattr(ReferenceElement, "scaling", counting_scaling)
    results = unisolvence_suite(count=3)
    assert all(r.passed for r in results)
    assert len(built) == 3
    assert len(scalings) == 3


def test_unisolvence_suite_evaluates_the_dofs_once_per_triangle(monkeypatch):
    """Both interpolation methods solve from one exact DOF evaluation per
    triangle, and that evaluation builds coefficient blocks only for the
    graph of its form: those of the reference DOF rows are built once."""
    calls, blocks = [], []
    evaluate = hodgefem.verify.dof_values
    coefficient_blocks = hodgefem.simplices._coefficient_blocks

    def counting_dof_values(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    def counting_blocks(family):
        blocks.append(len(family))
        return coefficient_blocks(family)

    reference_element(2, 1)  # built before counting, as a warm process has it
    monkeypatch.setattr(hodgefem.verify, "dof_values", counting_dof_values)
    monkeypatch.setattr(hodgefem.simplices, "_coefficient_blocks", counting_blocks)
    results = unisolvence_suite(count=3)
    assert all(r.passed for r in results)
    assert len(calls) == 3
    assert blocks == [1, 1, 1]


def test_fourstep_check_fails_when_a_method_misses_the_drawn_coefficients(monkeypatch):
    solve = hodgefem.verify.solve_dofs

    def off_by_one(values, matrix, method=DIRECT):
        coeffs = solve(values, matrix, method=method)
        if method == FOURSTEP:
            coeffs[5] += 1
        return coeffs

    monkeypatch.setattr(hodgefem.verify, "solve_dofs", off_by_one)
    results = {r.name: r for r in unisolvence_suite(count=2)}
    assert not results["fourstep-equals-direct"].passed
    assert results["fourstep-equals-direct"].detail.endswith("missed on 2 of 2 triangles")


def test_projection_check_fails_when_the_pairing_flips_the_delta_sign(monkeypatch):
    """The projection check compares the DOF matrix with quadrature of the functionals.

    The exact DOF matrix pairs the reference element's Green rows with the
    graph of its shape forms; flipping the sign of the delta slot there
    pairs delta mu with -tau, while the node tables keep the true forms.
    """
    rows = hodgefem.element._green_rows

    def flipped(tests):
        return [(up, -down, value) for up, down, value in rows(tests)]

    monkeypatch.setattr(hodgefem.element, "_green_rows", flipped)
    reference_element.cache_clear()
    try:
        results = {r.name: r for r in unisolvence_suite(count=3)}
    finally:
        monkeypatch.undo()
        reference_element.cache_clear()
    assert results["dof-matrix-cond-finite"].passed
    assert not results["interpolation-projection"].passed


def test_combine_is_the_scaled_space_combination_without_the_space():
    """R combined with S^T c is the member sum_i c_i (S R)_i, as an equal PolyForm."""
    rng = random.Random(11)
    for n, k in ((2, 1), (3, 1), (3, 2)):
        for _ in range(4):
            matrix = local_element(rand_simplex(n, rng), k)
            dim = matrix.reference.space.dim
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)]
            member = matrix.combine(coeffs)
            assert member == shape_space(matrix).combine(coeffs)
    with pytest.raises(TypeError, match="not floats"):
        matrix.combine([1.0] + [0] * (dim - 1))
    with pytest.raises(ValueError, match=f"expected {dim} coefficients"):
        matrix.combine([F(1)])


def test_float_dof_matrix_is_rounded_once_and_read_only():
    """``as_float`` divides the integer rows once: bit for bit
    ``np.array(exact, dtype=float)``, in every dimension and degree."""
    matrix = local_element(rand_simplex(2, random.Random(5)), 1)
    first = matrix.as_float
    assert matrix.as_float is first
    assert first.tolist() == [[float(v) for v in row] for row in exact(matrix)]
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1.0
    rng = random.Random(8)
    for n, k in ((2, 1), (3, 1), (3, 2)):
        for _ in range(10):
            matrix = local_element(rand_simplex(n, rng), k)
            want = np.array(exact(matrix), dtype=float)
            assert matrix.as_float.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_integer_row_solve_equals_the_fraction_reference(seed):
    """``solve_dofs`` on the integer rows, both methods, returns the
    solution of the Fraction Gauss-Jordan reference on the exact matrix,
    on random triangles (mixed-size vertices) and random exact right-hand
    sides, ints, small Fractions and coprime denominators near 10**20."""
    rng = random.Random(seed)
    for _ in range(12):
        matrix = local_element(rand_simplex(2, rng), 1)
        kinds = [
            lambda: rng.randint(-9, 9),
            lambda: F(rng.randint(-99, 99), rng.randint(1, 9)),
            lambda: F(rng.randint(-(10**20), 10**20), 10**20 + rng.randint(1, 99)),
        ]
        values = [rng.choice(kinds)() for _ in range(6)]
        want = [x[0] for x in solve_rational(exact(matrix), [[v] for v in values])]
        for method in (DIRECT, FOURSTEP):
            got = solve_dofs(values, matrix, method=method)
            assert got == want and all(type(x) is F for x in got)

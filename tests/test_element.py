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
    interpolate,
    interpolate_coeffs,
    local_element,
    reference_element,
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
from hodgefem.simplices import Simplex, l2_gram
from hodgefem.verify import unisolvence_suite

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
        space = local_element(rand_simplex(n, rng), k).space
        got = tuple(len(space.block_basis(b)) for b in (P0, KAPPA, STARKAPPA, H2D))
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
    space = matrix.space
    for i, mu in enumerate(space.basis):
        coeffs = interpolate_coeffs(mu, matrix, method=DIRECT)
        want = [F(1) if j == i else F(0) for j in range(6)]
        assert list(coeffs) == want


def test_fourstep_equals_direct_exactly():
    rng = random.Random(24)
    for _ in range(10):
        T = rand_simplex(2, rng)
        matrix = local_element(T, 1)
        target = matrix.space.combine([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)])
        a = interpolate_coeffs(target, matrix, method=DIRECT)
        b = interpolate_coeffs(target, matrix, method=FOURSTEP)
        assert list(a) == list(b)


def test_interpolate_returns_equal_form():
    rng = random.Random(25)
    T = rand_simplex(2, rng)
    matrix = local_element(T, 1)
    target = matrix.space.combine([F(3), F(-1), F(2), F(1, 2), F(0), F(5)])
    assert interpolate(target, matrix) == target


def test_callback_path_matches_exact_path():
    """Quadrature DOFs of a polynomial callback agree with the rational DOFs."""
    rng = random.Random(26)
    T = rand_simplex(2, rng)
    matrix = local_element(T, 1)
    target = matrix.space.combine([F(1), F(2), F(-1), F(1, 3), F(2), F(-3)])
    d_t = exterior_derivative(target)
    g_t = codifferential_green(target)
    bx = np.array([float(c) for c in T.barycenter])

    def ev_form(w, pts):
        centered = np.asarray(pts) - bx
        cols = []
        for a in multi_indices(w.k, 2):
            p = w.component(a)
            col = np.zeros(len(centered))
            for e, c in p.terms.items():
                term = np.full(len(centered), float(c))
                for i, ei in enumerate(e):
                    if ei:
                        term = term * centered[:, i] ** ei
                col += term
            cols.append(col)
        return np.stack(cols, axis=1)

    cb = FormCallback(
        value=lambda x: ev_form(target, x),
        d=lambda x: ev_form(d_t, x),
        delta=lambda x: ev_form(g_t, x),
    )
    exact = np.array([float(v) for v in dof_values(target, matrix)])
    approx = np.asarray(dof_values(cb, matrix, quad_order=6))
    scale = max(1.0, np.max(np.abs(exact)))
    assert np.max(np.abs(exact - approx)) <= 1e-12 * scale

    coeffs = interpolate_coeffs(cb, matrix, method=FOURSTEP, quad_order=6)
    want = np.array([1, 2, -1, 1 / 3, 2, -3], dtype=float)
    assert np.max(np.abs(np.asarray(coeffs, dtype=float) - want)) <= 1e-10


def test_float_coefficients_are_not_finished_in_fractions():
    T = reference_triangle()
    matrix = local_element(T, 1)
    space = matrix.space
    with pytest.raises(TypeError):
        space.combine([1.0, 0, 0, 0, 0, 0])
    assert space.combine([F(1), 0, 0, 0, 0, 0]) == space.basis[0]
    cb = FormCallback(
        value=lambda x: np.ones((len(x), 2)),
        d=lambda x: np.zeros((len(x), 1)),
        delta=lambda x: np.zeros((len(x), 1)),
    )
    with pytest.raises(TypeError, match="interpolate_coeffs"):
        interpolate(cb, matrix)
    # the float path stays float: the callback's coefficients come back as floats
    assert np.asarray(interpolate_coeffs(cb, matrix)).dtype == float


def test_callback_missing_derivative_data():
    T = reference_triangle()
    cb = FormCallback(value=lambda x: np.zeros((len(x), 2)), d=None, delta=None)
    with pytest.raises(ValueError):
        dof_values(cb, local_element(T, 1))


def test_callback_dofs_need_the_planar_one_form_element():
    T = Simplex([(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    matrix = local_element(T, 1)
    cb = FormCallback(
        value=lambda x: np.zeros((len(x), 3)),
        d=lambda x: np.zeros((len(x), 3)),
        delta=lambda x: np.zeros((len(x), 1)),
    )
    with pytest.raises(ValueError, match="planar 1-form element"):
        dof_values(cb, matrix)
    # the exact path stays general
    vals = dof_values(PolyForm.basis(3, (1,)), matrix)
    assert len(vals) == len(matrix.exact) and all(isinstance(v, F) for v in vals)


def test_scaled_conditioning_is_h_uniform():
    """Scaled DOF matrices keep one condition number across dyadic sizes."""
    conds = []
    for p in range(0, 7, 2):
        s = F(1, 2**p)
        T = Simplex([(F(0), F(0)), (s, F(0)), (F(0), s)])
        conds.append(local_element(T, 1).cond())
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

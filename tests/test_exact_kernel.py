"""Property tests of the exact kernel against independent references.

Integer moments against sympy's exact integration, the pairing kernel
against entrywise Fraction sums, the fraction-free elimination against
sympy's determinant and solve, and the scaled reference element against
the planar element built form by form with the forms calculus.
Triangles and matrices are drawn with small denominators and with
coprime denominators near 10**20.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hodgefem.element import build_h2d_form, form_values, poly_values, reference_element
from hodgefem.forms import (
    PolyForm,
    Polynomial,
    codifferential_green,
    exterior_derivative,
    hodge_star,
    koszul,
)
from hodgefem.globalspace import CellTemplate
from hodgefem.mesh import Triangulation
from hodgefem.simplices import Simplex, _gauss_jordan, integrate_poly, l2_gram, solve_rational

BIG = 10**20

EXACT = settings(
    max_examples=6,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def rationals(draw, big: bool, bound: int = 3) -> Fraction:
    den = draw(st.integers(BIG - 10**6, BIG + 10**6) if big else st.integers(1, 60))
    return Fraction(draw(st.integers(-bound * den, bound * den)), den)


@st.composite
def triangles(draw, big: bool) -> Simplex:
    verts = [(draw(rationals(big)), draw(rationals(big))) for _ in range(3)]
    try:
        return Simplex(verts)
    except ValueError:
        assume(False)


@st.composite
def polynomials(draw, degree: int = 2) -> Polynomial:
    exps = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return Polynomial(2, {e: draw(rationals(False, 4)) for e in draw(st.sets(st.sampled_from(exps)))})


@st.composite
def one_forms(draw) -> PolyForm:
    return PolyForm(2, 1, {(1,): draw(polynomials()), (2,): draw(polynomials())})


@st.composite
def graph_members(draw) -> tuple[PolyForm, PolyForm]:
    """A 1-form with a 0-form: a member of a direct sum of form spaces."""
    return draw(one_forms()), PolyForm(2, 0, {(): draw(polynomials())})


def _sympy_moment(T: Simplex, e: tuple[int, int]) -> sympy.Rational:
    """Integral of the centered monomial, by sympy over the reference triangle."""
    s, t = sympy.symbols("s t")
    v = [[sympy.Rational(x.numerator, x.denominator) for x in p] for p in T.vertices]
    bary = [(v[0][j] + v[1][j] + v[2][j]) / 3 for j in range(2)]
    x = [v[0][j] + s * (v[1][j] - v[0][j]) + t * (v[2][j] - v[0][j]) - bary[j] for j in range(2)]
    jac = abs((v[1][0] - v[0][0]) * (v[2][1] - v[0][1]) - (v[2][0] - v[0][0]) * (v[1][1] - v[0][1]))
    inner = sympy.Poly(x[0] ** e[0] * x[1] ** e[1], t, s, domain=sympy.QQ).integrate(t)
    outer = sympy.Poly(inner.as_expr().subs(t, 1 - s), s, domain=sympy.QQ).integrate(s)
    return jac * outer.eval(1)


def _fraction(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _pairing_reference(u, v, T: Simplex) -> Fraction:
    """Entrywise Fraction sum of the slotwise, componentwise integrals."""
    u = u if isinstance(u, tuple) else (u,)
    v = v if isinstance(v, tuple) else (v,)
    return sum(
        (
            integrate_poly(p * b.comps[alpha], T)
            for a, b in zip(u, v)
            for alpha, p in a.comps.items()
            if alpha in b.comps
        ),
        Fraction(0),
    )


@pytest.mark.parametrize("big", [False, True])
@settings(EXACT, max_examples=3)
@given(data=st.data())
def test_monomial_integrals_equal_sympy(big, data):
    T = data.draw(triangles(big))
    for a in range(5):
        for b in range(5 - a):
            assert T.monomial_integral((a, b)) == _fraction(_sympy_moment(T, (a, b))), (a, b)


@pytest.mark.parametrize("big", [False, True])
@EXACT
@given(
    data=st.data(),
    us=st.lists(one_forms(), min_size=1, max_size=3),
    vs=st.lists(one_forms(), min_size=1, max_size=3),
)
def test_l2_gram_equals_entrywise_fraction_reference(big, data, us, vs):
    T = data.draw(triangles(big))
    assert l2_gram(us, vs, T) == [[_pairing_reference(u, v, T) for v in vs] for u in us]


@pytest.mark.parametrize("big", [False, True])
@EXACT
@given(data=st.data(), family=st.lists(graph_members(), min_size=1, max_size=3))
def test_l2_gram_of_direct_sums_adds_the_slotwise_products(big, data, family):
    T = data.draw(triangles(big))
    assert l2_gram(family, family, T) == [
        [_pairing_reference(u, v, T) for v in family] for u in family
    ]


@st.composite
def swapped_systems(draw, big: bool):
    """A square system whose first pivot is zero, so elimination must swap rows."""
    size = draw(st.integers(2, 5))
    entry = rationals(big, 5)
    A = [[draw(entry) for _ in range(size)] for _ in range(size)]
    A[0][0] = Fraction(0)
    assume(any(A[r][0] != 0 for r in range(1, size)))
    B = [[draw(entry) for _ in range(draw(st.integers(1, 3)))]]
    B += [[draw(entry) for _ in B[0]] for _ in range(size - 1)]
    return A, B


def _sympy_matrix(rows) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])


@pytest.mark.parametrize("big", [False, True])
@EXACT
@given(data=st.data())
def test_gauss_jordan_matches_sympy_after_a_row_swap(big, data):
    A, B = data.draw(swapped_systems(big))
    det, X = _gauss_jordan(A, B)
    want = _sympy_matrix(A).det()
    assert det == _fraction(want)
    if want == 0:
        assert X is None
        return
    sol = _sympy_matrix(A).LUsolve(_sympy_matrix(B))
    assert X == [[_fraction(sol[i, j]) for j in range(sol.cols)] for i in range(sol.rows)]
    assert solve_rational(A, B) == X


@pytest.mark.parametrize("big", [False, True])
@EXACT
@given(data=st.data(), weights=st.lists(rationals(False, 5), min_size=5, max_size=5))
def test_singular_matrix_still_raises(big, data, weights):
    A, B = data.draw(swapped_systems(big))
    # the last row a rational combination of the others
    A[-1] = [sum((w * row[j] for w, row in zip(weights, A[:-1])), Fraction(0)) for j in range(len(A))]
    assert _gauss_jordan(A, B) == (Fraction(0), None)
    with pytest.raises(ValueError):
        solve_rational(A, B)


PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)


@st.composite
def element_triangles(draw, kind: str, orientation: int) -> Simplex:
    """A triangle with small, near-10**20 or coprime prime denominators (as in
    ``conftest._coprime``), its vertices given in the requested orientation."""
    if kind == "coprime":
        primes = iter(draw(st.permutations(PRIMES)))
        verts = [
            tuple(draw(st.integers(-3, 3)) + Fraction(1, 16 * next(primes)) for _ in range(2))
            for _ in range(3)
        ]
    else:
        verts = [(draw(rationals(kind == "big")), draw(rationals(kind == "big"))) for _ in range(3)]
    (x0, y0), (x1, y1), (x2, y2) = verts
    cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    assume(cross != 0)
    if (cross > 0) != (orientation > 0):
        verts[1], verts[2] = verts[2], verts[1]
    return Simplex(verts)


def _green_rows(etas, taus):
    up, down = PolyForm.zero(2, 2), PolyForm.zero(2, 0)
    rows = [(eta, down, -codifferential_green(eta)) for eta in etas]
    return rows + [(up, tau, -exterior_derivative(tau)) for tau in taus]


def _planar_element(T: Simplex):
    """The planar element on T form by form: shape forms, graph, DOF and hat tests."""
    inv_h = 1 / T.h_scale
    dx = [PolyForm.basis(2, (1,)), PolyForm.basis(2, (2,))]

    def star_koszul_star(w):
        return hodge_star(koszul(hodge_star(w)))

    shape = dx + [
        inv_h * koszul(PolyForm.basis(2, (1, 2))),
        inv_h * star_koszul_star(PolyForm.basis(2, ())),
    ]
    shape += [inv_h * inv_h * build_h2d_form(alpha, T) for alpha in ((1,), (2,))]
    graph = [(exterior_derivative(mu), codifferential_green(mu), mu) for mu in shape]
    etas = [PolyForm.basis(2, (1, 2))] + [inv_h * star_koszul_star(w) for w in dx]
    taus = [PolyForm.basis(2, ())] + [inv_h * koszul(w) for w in dx]
    # lambda_i(x) = cross(p_j - x, p_k - x) / cross(p_j - p_i, p_k - p_i), (i, j, k) cyclic
    p = T.centered
    hats = []
    for i in range(3):
        a, b = p[(i + 1) % 3], p[(i + 2) % 3]
        area = (a[0] - p[i][0]) * (b[1] - p[i][1]) - (a[1] - p[i][1]) * (b[0] - p[i][0])
        coeffs = {(0, 0): a[0] * b[1] - a[1] * b[0], (1, 0): a[1] - b[1], (0, 1): b[0] - a[0]}
        hats.append(Polynomial(2, {e: c / area for e, c in coeffs.items()}))
    hat_rows = _green_rows(
        [PolyForm(2, 2, {(1, 2): lam}) for lam in hats], [PolyForm(2, 0, {(): lam}) for lam in hats]
    )
    return shape, graph, etas, taus, hat_rows


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("kind", ["small", "big", "coprime"])
@settings(EXACT, max_examples=4)
@given(data=st.data())
def test_reference_element_equals_the_element_built_form_by_form(kind, orientation, data):
    """gram, DOF matrix, Whitney rows, duals and node tables of the scaled
    reference element against the forms calculus and ``l2_gram``, exactly."""
    triangles = data.draw(st.lists(element_triangles(kind, orientation), min_size=1, max_size=3))
    templates = [CellTemplate(Triangulation(T.vertices, [(0, 1, 2)]), 0) for T in triangles]
    eye = [[Fraction(int(r == c)) for c in range(6)] for r in range(6)]
    elements = [_planar_element(T) for T in triangles]
    for T, t, (shape, graph, etas, taus, hat_rows) in zip(triangles, templates, elements):
        assert t.gram == l2_gram(graph, graph, T)
        assert t.matrix.exact == l2_gram(_green_rows(etas, taus), graph, T)
        whitney = l2_gram(hat_rows, graph, T)
        assert t.whitney == whitney
        assert t.duals == solve_rational(whitney, eye)
    # the batched node tables against each element's forms at the same nodes
    scales = [t.matrix.scaling.floats() for t in templates]
    tab = reference_element(2, 1).tables(
        np.array([[[float(x) for x in v] for v in T.centered] for T in triangles]),
        np.array([float(T.volume) for T in triangles]),
        np.array([S for S, _ in scales]),
        np.array([E for _, E in scales]),
        6,
    )
    for i, (shape, graph, etas, taus, _) in enumerate(elements):
        nodes = tab["centered"][i]

        def scalar(w):
            return poly_values(w.component(w.indices()[0]), nodes)

        want = {
            "val": [form_values(mu, nodes) for mu in shape],
            "dval": [scalar(d) for d, _, _ in graph],
            "gval": [scalar(g) for _, g, _ in graph],
            "eta_v": [scalar(eta) for eta in etas],
            "eta_g": [form_values(codifferential_green(eta), nodes) for eta in etas],
            "tau_v": [scalar(tau) for tau in taus],
            "tau_d": [form_values(exterior_derivative(tau), nodes) for tau in taus],
        }
        for key, values in want.items():
            values = np.array(values)
            assert np.abs(tab[key][i] - values).max() <= 1e-13 * np.abs(values).max(), key

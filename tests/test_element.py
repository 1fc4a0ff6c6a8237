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
    build_dof_basis,
    build_dof_matrix,
    build_h2d_form,
    build_h2delta_form,
    build_shape_space,
    dof_values,
    interpolate,
    interpolate_coeffs,
    reference_element,
)
from hodgefem.forms import (
    PolyForm,
    codifferential,
    codifferential_green,
    exterior_derivative,
    koszul,
    multi_indices,
)
import hodgefem.element
from hodgefem.simplices import Simplex
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
        space = build_shape_space(n, k, rand_simplex(n, rng))
        got = tuple(len(space.block_basis(b)) for b in (P0, KAPPA, STARKAPPA, H2D))
        assert got == sizes
        assert space.dim == sum(sizes)


def test_k_out_of_range():
    T = reference_triangle()
    for k in (0, 2):
        with pytest.raises(ValueError):
            build_shape_space(2, k, T)


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
    space = build_shape_space(2, 1, T)
    dofs = build_dof_basis(2, 1, T)
    matrix = build_dof_matrix(space, dofs)
    for i, mu in enumerate(space.basis):
        coeffs = interpolate_coeffs(mu, matrix, method=DIRECT)
        want = [F(1) if j == i else F(0) for j in range(6)]
        assert list(coeffs) == want


def test_fourstep_equals_direct_exactly():
    rng = random.Random(24)
    for _ in range(10):
        T = rand_simplex(2, rng)
        space = build_shape_space(2, 1, T)
        dofs = build_dof_basis(2, 1, T)
        target = space.combine([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)])
        matrix = build_dof_matrix(space, dofs)
        a = interpolate_coeffs(target, matrix, method=DIRECT)
        b = interpolate_coeffs(target, matrix, method=FOURSTEP)
        assert list(a) == list(b)


def test_interpolate_returns_equal_form():
    rng = random.Random(25)
    T = rand_simplex(2, rng)
    space = build_shape_space(2, 1, T)
    dofs = build_dof_basis(2, 1, T)
    target = space.combine([F(3), F(-1), F(2), F(1, 2), F(0), F(5)])
    assert interpolate(target, build_dof_matrix(space, dofs)) == target


def test_callback_path_matches_exact_path():
    """Quadrature DOFs of a polynomial callback agree with the rational DOFs."""
    rng = random.Random(26)
    T = rand_simplex(2, rng)
    space = build_shape_space(2, 1, T)
    dofs = build_dof_basis(2, 1, T)
    target = space.combine([F(1), F(2), F(-1), F(1, 3), F(2), F(-3)])
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
    matrix = build_dof_matrix(space, dofs)
    exact = np.array([float(v) for v in dof_values(target, matrix)])
    approx = np.asarray(dof_values(cb, matrix, quad_order=6))
    scale = max(1.0, np.max(np.abs(exact)))
    assert np.max(np.abs(exact - approx)) <= 1e-12 * scale

    coeffs = interpolate_coeffs(cb, matrix, method=FOURSTEP, quad_order=6)
    want = np.array([1, 2, -1, 1 / 3, 2, -3], dtype=float)
    assert np.max(np.abs(np.asarray(coeffs, dtype=float) - want)) <= 1e-10


def test_float_coefficients_are_not_finished_in_fractions():
    T = reference_triangle()
    space = build_shape_space(2, 1, T)
    matrix = build_dof_matrix(space, build_dof_basis(2, 1, T))
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
    space = build_shape_space(2, 1, T)
    dofs = build_dof_basis(2, 1, T)
    cb = FormCallback(value=lambda x: np.zeros((len(x), 2)), d=None, delta=None)
    with pytest.raises(ValueError):
        dof_values(cb, build_dof_matrix(space, dofs))


def test_callback_dofs_need_the_planar_one_form_element():
    T = Simplex([(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    matrix = build_dof_matrix(build_shape_space(3, 1, T), build_dof_basis(3, 1, T))
    cb = FormCallback(
        value=lambda x: np.zeros((len(x), 3)),
        d=lambda x: np.zeros((len(x), 3)),
        delta=lambda x: np.zeros((len(x), 1)),
    )
    with pytest.raises(ValueError, match="planar 1-form element"):
        dof_values(cb, matrix)
    # the exact path stays general
    vals = dof_values(PolyForm.basis(3, (1,)), matrix)
    assert len(vals) == matrix.dofs.count and all(isinstance(v, F) for v in vals)


def test_scaled_conditioning_is_h_uniform():
    """Scaled DOF matrices keep one condition number across dyadic sizes."""
    conds = []
    for p in range(0, 7, 2):
        s = F(1, 2**p)
        T = Simplex([(F(0), F(0)), (s, F(0)), (F(0), s)])
        space = build_shape_space(2, 1, T)
        dofs = build_dof_basis(2, 1, T)
        conds.append(build_dof_matrix(space, dofs).cond())
    assert max(conds) / min(conds) <= 1.0 + 1e-9


def test_unisolvence_suite_builds_one_dof_matrix_per_triangle(monkeypatch):
    """The local element is built once per triangle and reused by every check."""
    built = []
    init = DofMatrix.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(DofMatrix, "__init__", counting_init)
    results = unisolvence_suite(count=3)
    assert all(r.passed for r in results)
    assert len(built) == 3


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

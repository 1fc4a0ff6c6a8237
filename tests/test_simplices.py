"""Exact simplex geometry, integration, rational solves, and quadrature."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hodgefem.forms import PolyForm, Polynomial, multi_indices
from hodgefem.simplices import MAX_QUAD_ORDER, MIN_QUAD_ORDER, Simplex, quadrature_rule

from reference import (
    diameter,
    h1_seminorm_sq,
    integrate_poly,
    l2_gram,
    shape_ratio,
    solve_rational,
)

F = Fraction


def reference_triangle():
    return Simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])


def test_volumes():
    assert reference_triangle().volume == F(1, 2)
    tet = Simplex([(F(0),) * 3, (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    assert tet.volume == F(1, 6)


def test_orientation_normalization_keeps_volume_positive():
    flipped = Simplex([(F(0), F(0)), (F(0), F(1)), (F(1), F(0))])
    assert flipped.volume == F(1, 2)
    assert flipped.barycenter == reference_triangle().barycenter


def test_degenerate_simplex_rejected():
    with pytest.raises(ValueError):
        Simplex([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])


def test_centered_second_moment_reference_triangle():
    """The frozen value: integral of (x - xbar)^2 over the reference triangle."""
    T = reference_triangle()
    # centered quadratic in the first variable
    p = Polynomial(2, {(2, 0): F(1)})
    assert integrate_poly(p, T) == F(1, 36)
    assert T.second_moments[0] == F(1, 36) / T.volume == F(1, 18)


def test_monomial_integrals_match_closed_form():
    # int over reference triangle of x^a y^b = a! b! / (a + b + 2)!
    T = reference_triangle()
    for a in range(4):
        for b in range(4):
            # shift to centered coordinates: integrate_poly works on centered
            # polynomials, so build the centered representation of x^a y^b
            x = Polynomial.variable(2, 1) + Polynomial.constant(2, T.barycenter[0])
            y = Polynomial.variable(2, 2) + Polynomial.constant(2, T.barycenter[1])
            p = Polynomial.constant(2, F(1))
            for _ in range(a):
                p = p * x
            for _ in range(b):
                p = p * y
            want = F(math.factorial(a) * math.factorial(b), math.factorial(a + b + 2))
            assert integrate_poly(p, T) == want, (a, b)


def test_solve_rational_round_trip():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 6)
        while True:
            A = [[F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            xs = [[F(rng.randint(-9, 9))] for _ in range(n)]
            try:
                rhs = [[sum(A[i][j] * xs[j][0] for j in range(n))] for i in range(n)]
                got = solve_rational([row[:] for row in A], rhs)
                break
            except ValueError:
                continue
        assert got == xs


def test_solve_rational_singular():
    with pytest.raises(ValueError):
        solve_rational([[F(1), F(2)], [F(2), F(4)]], [[F(1)], [F(0)]])


def _rule_on(T, order):
    """``quadrature_rule`` mapped to T: float points (nq, n) and weights (nq,)."""
    bary, w = quadrature_rule(T.n, order)
    verts = np.array([[float(x) for x in v] for v in T.vertices])
    pts = np.array([[float(b) for b in node] for node in bary]) @ verts
    return pts, np.array([float(x) for x in w]) * float(T.volume) * math.factorial(T.n)


def test_quadrature_exactness_all_orders():
    rng = random.Random(13)
    for n in (2, 3):
        while True:
            verts = [
                tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
                for _ in range(n + 1)
            ]
            try:
                T = Simplex(verts)
                break
            except ValueError:
                continue
        for order in range(MIN_QUAD_ORDER, MAX_QUAD_ORDER + 1):
            # random centered polynomial of exactly the advertised degree
            terms = {}
            for _ in range(6):
                e = [0] * n
                left = order
                for i in range(n):
                    e[i] = rng.randint(0, left)
                    left -= e[i]
                terms[tuple(e)] = F(rng.randint(-5, 5), rng.randint(1, 3))
            terms[(order,) + (0,) * (n - 1)] = F(1)
            p = Polynomial(n, terms)
            exact = float(integrate_poly(p, T))
            pts, w = _rule_on(T, order)
            approx = sum(wi * _poly_eval_batch(p, x, T) for x, wi in zip(pts, w))
            scale = max(1.0, abs(exact))
            assert abs(approx - exact) <= 1e-12 * scale, (n, order)


def _poly_eval_batch(p, pt, T):
    bx = np.array([float(c) for c in T.barycenter])
    centered = np.asarray(pt) - bx
    out = 0.0
    for e, c in p.terms.items():
        term = float(c)
        for i, ei in enumerate(e):
            if ei:
                term *= centered[i] ** ei
        out += term
    return out


def test_quadrature_order_range_errors():
    for order in (0, 1, 11):
        with pytest.raises(ValueError):
            quadrature_rule(2, order)
        with pytest.raises(ValueError):
            quadrature_rule(3, order)


def test_rule_weights_sum_to_volume():
    T = reference_triangle()
    for order in (2, 6, 10):
        pts, w = _rule_on(T, order)
        assert abs(w.sum() - 0.5) <= 1e-14


def test_l2_gram_shape_checks():
    T = reference_triangle()
    a = PolyForm.basis(2, (1,))
    b = PolyForm.basis(2, (1, 2))
    with pytest.raises(ValueError):
        l2_gram([a], [b], T)
    c = PolyForm.basis(3, (1,))
    with pytest.raises(ValueError):
        l2_gram([a], [c], T)


def test_h1_seminorm_of_linear_form():
    # mu = (x)dx^1 on the reference triangle: |mu|_H1^2 = |T| = 1/2
    T = reference_triangle()
    mu = PolyForm(2, 1, {(1,): Polynomial.variable(2, 1)})
    assert h1_seminorm_sq(mu, T) == F(1, 2)


def test_h_scale_dilation_and_bounds():
    rng = random.Random(14)
    for _ in range(20):
        while True:
            verts = [
                (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4)) for _ in range(3)
            ]
            try:
                T = Simplex(verts)
                break
            except ValueError:
                continue
        T2 = Simplex([(2 * x, 2 * y) for x, y in verts])
        assert T2.h_scale == 2 * T.h_scale
        assert 0 < float(T.h_scale) <= diameter(T) + 1e-12


def test_shape_ratio_orders_flat_triangles_last():
    good = reference_triangle()
    flat = Simplex([(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 20))])
    assert shape_ratio(flat) > shape_ratio(good)

"""Exterior algebra on polynomial forms: exact identities and error paths."""

import random
from fractions import Fraction

import pytest

from hodgefem.forms import (
    PolyForm,
    Polynomial,
    codifferential,
    codifferential_green,
    complement,
    exterior_derivative,
    hodge_star,
    koszul,
    multi_indices,
    star_sign,
    wedge_sign,
)

from reference import wedge


def rand_poly(n, rng, degree=2):
    terms = {}
    def grow(prefix, remaining, budget):
        if remaining == 0:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                terms[tuple(prefix)] = c
            return
        for e in range(budget + 1):
            grow(prefix + [e], remaining - 1, budget - e)
    grow([], n, degree)
    if not terms:
        terms[(0,) * n] = Fraction(1)
    return Polynomial(n, terms)


def rand_form(n, k, rng, degree=2):
    return PolyForm(n, k, {a: rand_poly(n, rng, degree) for a in multi_indices(k, n)})


def test_polynomial_arithmetic_and_eval():
    p = Polynomial(2, {(1, 0): Fraction(2), (0, 2): Fraction(1, 3)})
    q = Polynomial.variable(2, 1)
    r = p * q + Polynomial.constant(2, Fraction(5))
    # r = 2x^2 + (1/3)x y^2 + 5 at (x, y) = (3, 6)
    assert r.terms == {(2, 0): 2, (1, 2): Fraction(1, 3), (0, 0): 5}
    assert (p - p).is_zero()
    assert max(map(sum, r.terms)) == 3  # the total degree
    assert r.partial(1).terms == {(1, 0): 4, (0, 2): Fraction(1, 3)}


def test_multi_indices_lexicographic():
    assert multi_indices(2, 3) == [(1, 2), (1, 3), (2, 3)]
    assert multi_indices(0, 3) == [()]
    assert multi_indices(3, 3) == [(1, 2, 3)]
    assert complement((1, 3), 4) == (2, 4)


def test_star_sign_and_wedge_sign():
    # (-1)^{sum(alpha) - k(k+1)/2}
    assert star_sign((1,)) == 1
    assert star_sign((2,)) == -1
    assert star_sign((1, 2)) == 1
    assert star_sign((1, 3)) == -1
    sign, merged = wedge_sign((2,), (1, 3))
    assert merged == (1, 2, 3) and sign == -1
    sign, merged = wedge_sign((1,), (1, 2))
    assert sign == 0


def test_hodge_star_involution_sign():
    rng = random.Random(4)
    for n in (2, 3, 4):
        for k in range(n + 1):
            mu = rand_form(n, k, rng)
            ss = hodge_star(hodge_star(mu))
            assert ss == (mu if (k * (n - k)) % 2 == 0 else -mu), (n, k)


def test_compositions_vanish():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for k in range(n + 1):
            mu = rand_form(n, k, rng)
            if k <= n - 2:
                assert exterior_derivative(exterior_derivative(mu)).is_zero()
            if k >= 2:
                assert codifferential(codifferential(mu)).is_zero()
                assert koszul(koszul(mu)).is_zero()


def test_top_and_bottom_degree_errors():
    mu = rand_form(2, 2, random.Random(0))
    with pytest.raises(ValueError):
        exterior_derivative(mu)
    f = rand_form(3, 0, random.Random(1))
    with pytest.raises(ValueError):
        codifferential(f)
    with pytest.raises(ValueError):
        koszul(f)


def test_two_codifferential_signs_in_two_dimensions():
    """The raw sign convention gives +div in 2D; the Green variant -div."""
    p = Polynomial(2, {(2, 0): Fraction(1)})      # x^2
    q = Polynomial(2, {(1, 1): Fraction(3)})      # 3xy
    w = PolyForm(2, 1, {(1,): p, (2,): q})
    div = p.partial(1) + q.partial(2)             # 2x + 3x
    assert codifferential(w) == PolyForm(2, 0, {(): div})
    assert codifferential_green(w) == PolyForm(2, 0, {(): -div})


def test_codifferential_variants_agree_in_odd_dimension():
    rng = random.Random(6)
    for k in (1, 2, 3):
        mu = rand_form(3, k, rng)
        assert codifferential(mu) == codifferential_green(mu)


def test_koszul_scaling_on_constant_forms():
    """d(koszul eta) = (k+1) eta for constant (k+1)-forms."""
    rng = random.Random(7)
    for n in (2, 3, 4):
        for k in range(1, n):
            comps = {
                a: Polynomial.constant(n, Fraction(rng.randint(-5, 5)) or Fraction(1))
                for a in multi_indices(k + 1, n)
            }
            eta = PolyForm(n, k + 1, comps)
            assert exterior_derivative(koszul(eta)) == (k + 1) * eta


def test_star_koszul_star_scaling():
    rng = random.Random(8)
    for n in (2, 3, 4):
        for k in range(1, n):
            comps = {
                a: Polynomial.constant(n, Fraction(rng.randint(1, 5)))
                for a in multi_indices(k - 1, n)
            }
            tau = PolyForm(n, k - 1, comps)
            sks = hodge_star(koszul(hodge_star(tau)))
            scale = n - k + 1
            if (k * n - n - 1) % 2:
                scale = -scale
            assert codifferential(sks) == scale * tau


def test_wedge_anticommutes_for_one_forms():
    rng = random.Random(9)
    for n in (2, 3, 4):
        a = rand_form(n, 1, rng)
        b = rand_form(n, 1, rng)
        assert wedge(a, b) == -wedge(b, a)
        assert wedge(a, a).is_zero()


def test_leibniz_rule():
    rng = random.Random(10)
    for n in (2, 3):
        f = rand_form(n, 0, rng)
        mu = rand_form(n, 1, rng)
        lhs = exterior_derivative(wedge(f, mu))
        rhs = wedge(exterior_derivative(f), mu) + wedge(f, exterior_derivative(mu))
        assert lhs == rhs

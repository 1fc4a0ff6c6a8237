"""Verification suite shared by the command line tool and the test suite.

Three groups of checks:

  identity_suite     exact rational identities of the form calculus
                     (composition laws, star involution, Koszul scalings,
                     and the two quadratic-enrichment identities)
  norm_suite         the norm equality |d(koszul eta)| = sqrt(k+1) |koszul eta|_H1
                     for constant eta, checked exactly on random simplices
  unisolvence_suite  DOF matrix conditioning, the projection property of
                     the interpolation (the float DOF matrix against
                     quadrature of the Green functionals), and agreement
                     of the two interpolation algorithms on random
                     triangles

Every check returns a CheckResult; nothing raises on failure, so a
caller can report the full picture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .element import (
    DIRECT,
    FOURSTEP,
    build_h2d_form,
    build_h2delta_form,
    interpolate_coeffs,
    local_element,
    quadrature_dofs,
    reference_element,
)
from .forms import (
    PolyForm,
    Polynomial,
    codifferential,
    exterior_derivative,
    hodge_star,
    koszul,
    multi_indices,
)
from .simplices import Simplex

__all__ = [
    "CheckResult",
    "identity_suite",
    "norm_suite",
    "unisolvence_suite",
    "full_suite",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.detail}"


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _rand_poly(n: int, rng: random.Random, degree: int = 2) -> Polynomial:
    terms = {}
    # all exponent tuples with total degree <= degree
    def grow(prefix, remaining, budget):
        if remaining == 0:
            terms_list.append(tuple(prefix))
            return
        for e in range(budget + 1):
            grow(prefix + [e], remaining - 1, budget - e)

    terms_list: list[tuple[int, ...]] = []
    grow([], n, degree)
    for e in terms_list:
        c = _rand_fraction(rng)
        if c:
            terms[e] = c
    if not terms:
        terms[(0,) * n] = Fraction(1)
    return Polynomial(n, terms)


def _rand_form(n: int, k: int, rng: random.Random, degree: int = 2) -> PolyForm:
    return PolyForm(n, k, {a: _rand_poly(n, rng, degree) for a in multi_indices(k, n)})


def _rand_constant_form(n: int, k: int, rng: random.Random) -> PolyForm:
    comps = {}
    for a in multi_indices(k, n):
        c = _rand_fraction(rng)
        if c:
            comps[a] = Polynomial.constant(n, c)
    if not comps:
        comps[tuple(range(1, k + 1))] = Polynomial.constant(n, Fraction(1))
    return PolyForm(n, k, comps)


def _rand_simplex(n: int, rng: random.Random) -> Simplex:
    while True:
        verts = [
            tuple(Fraction(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(n))
            for _ in range(n + 1)
        ]
        try:
            return Simplex(verts)
        except ValueError:
            continue


def identity_suite(seed: int = 0) -> list[CheckResult]:
    """Exact composition and scaling identities, one result per (name, n, k)."""
    rng = random.Random(seed)
    out: list[CheckResult] = []

    def record(name, n, k, ok):
        out.append(CheckResult(f"{name}[n={n},k={k}]", ok, "exact" if ok else "mismatch"))

    for n in (2, 3, 4):
        for k in range(1, n):
            mu = _rand_form(n, k, rng)
            ss = hodge_star(hodge_star(mu))
            want = mu if (k * (n - k)) % 2 == 0 else -mu
            record("star-star-sign", n, k, ss == want)

            if k <= n - 2:
                record(
                    "d-after-d-zero",
                    n,
                    k,
                    exterior_derivative(exterior_derivative(mu)).is_zero(),
                )
            if k >= 2:
                record(
                    "delta-after-delta-zero",
                    n,
                    k,
                    codifferential(codifferential(mu)).is_zero(),
                )
                record("koszul-after-koszul-zero", n, k, koszul(koszul(mu)).is_zero())

            eta = _rand_constant_form(n, k + 1, rng)
            record(
                "d-koszul-scaling", n, k, exterior_derivative(koszul(eta)) == (k + 1) * eta
            )

            tau = _rand_constant_form(n, k - 1, rng) if k >= 2 else PolyForm(
                n, 0, {(): Polynomial.constant(n, _rand_fraction(rng) or Fraction(1))}
            )
            sks = hodge_star(koszul(hodge_star(tau)))
            scale = n - k + 1
            if (k * n - n - 1) % 2:
                scale = -scale
            record("delta-star-koszul-star-scaling", n, k, codifferential(sks) == scale * tau)

            S = _rand_simplex(n, rng)
            ok_d = True
            ok_delta = True
            for alpha in multi_indices(k, n):
                base = PolyForm.basis(n, alpha)
                md = build_h2d_form(alpha, S)
                want_d = 2 * hodge_star(koszul(hodge_star(base)))
                if (n * (1 + k) + 1) % 2:
                    want_d = -want_d
                if exterior_derivative(md) != want_d or not codifferential(md).is_zero():
                    ok_d = False
                mdel = build_h2delta_form(alpha, S)
                want_g = 2 * koszul(base)
                if n % 2:
                    want_g = -want_g
                if codifferential(mdel) != want_g or not exterior_derivative(mdel).is_zero():
                    ok_delta = False
            record("quadratic-d-enrichment-identity", n, k, ok_d)
            record("quadratic-delta-companion-identity", n, k, ok_delta)
    return out


def norm_suite(count: int = 100, seed: int = 0) -> list[CheckResult]:
    """|d(koszul eta)|^2 = (k+1) |koszul eta|_H1^2, exact per random simplex."""
    from .simplices import h1_seminorm_sq, l2_inner

    rng = random.Random(seed + 1)
    out = []
    for n in (2, 3):
        for k in range(1, n):
            worst = Fraction(0)
            ok = True
            for _ in range(count):
                S = _rand_simplex(n, rng)
                eta = _rand_constant_form(n, k + 1, rng)
                mu = koszul(eta)
                dmu = exterior_derivative(mu)
                lhs = l2_inner(dmu, dmu, S)
                rhs = (k + 1) * h1_seminorm_sq(mu, S)
                if lhs != rhs:
                    ok = False
                    worst = max(worst, abs(lhs - rhs))
            detail = "exact on all simplices" if ok else f"gap {float(worst):.3e}"
            out.append(
                CheckResult(f"d-norm-equals-sqrt(k+1)-h1[n={n},k={k}]", ok, detail)
            )
    return out


def _rand_triangle(rng: random.Random, max_ratio: float = 10.0) -> Simplex:
    """Random shape-regular triangle, rational vertices, varied size."""
    scale = Fraction(2) ** rng.randint(-4, 2)
    while True:
        verts = [
            (
                Fraction(rng.randint(-64, 64), 64) * scale,
                Fraction(rng.randint(-64, 64), 64) * scale,
            )
            for _ in range(3)
        ]
        try:
            s = Simplex(verts)
        except ValueError:
            continue
        if s.shape_ratio <= max_ratio:
            return s


def unisolvence_suite(
    count: int = 1000, seed: int = 0, tol: float = 1e-10
) -> list[CheckResult]:
    """DOF matrix conditioning and interpolation checks on random triangles."""
    rng = random.Random(seed + 2)
    max_cond = 0.0
    max_gap = 0.0
    # per triangle: centered vertices, area, float S and E, float DOF matrix
    vertices, volumes, test_scale = np.empty((count, 3, 2)), np.empty(count), np.empty((count, 6))
    shape_scale, M = np.empty((count, 6, 6)), np.empty((count, 6, 6))
    for i in range(count):
        S = _rand_triangle(rng)
        matrix = local_element(S, 1)
        cond = matrix.cond()
        if not np.isfinite(cond):
            return [CheckResult("dof-matrix-cond-finite", False, "singular matrix hit")]
        max_cond = max(max_cond, cond)
        vertices[i], volumes[i], M[i] = S.centered, S.volume, matrix.as_float
        shape_scale[i], test_scale[i] = matrix.scaling.floats()
        # the two algorithms agree on a generic member of the space
        target = matrix.space.combine([_rand_fraction(rng) for _ in range(6)])
        a = interpolate_coeffs(target, matrix, method=DIRECT)
        b = interpolate_coeffs(target, matrix, method=FOURSTEP)
        gap = max(abs(float(x - y)) for x, y in zip(a, b))
        max_gap = max(max_gap, gap)
    # projection: interpolating each shape basis form returns its unit
    # vector.  Its DOF values V come from float quadrature of the Green
    # functionals, independent of the exact pairing that built M, so
    # M^-1 V = I tests the DOF matrix against the functionals.  The node
    # tables of all triangles are one stacked ``tables`` call, as
    # ``node_tables`` would build them one at a time.
    tab = reference_element(2, 1).tables(vertices, volumes, shape_scale, test_scale, 6)
    values = quadrature_dofs(tab, tab["val"], tab["dval"], tab["gval"])
    X = np.linalg.solve(M, values.transpose(0, 2, 1))
    max_proj = float(np.max(np.abs(X - np.eye(6)), initial=0.0))
    return [
        CheckResult(
            "dof-matrix-cond-finite", True, f"max cond {max_cond:.3e} over {count} triangles"
        ),
        CheckResult(
            "interpolation-projection", max_proj <= tol, f"max coefficient error {max_proj:.3e}"
        ),
        CheckResult(
            "fourstep-equals-direct", max_gap <= tol, f"max coefficient gap {max_gap:.3e}"
        ),
    ]


def full_suite(
    seed: int = 0, norm_count: int = 100, triangle_count: int = 1000
) -> list[CheckResult]:
    out = identity_suite(seed)
    out += norm_suite(norm_count, seed)
    out += unisolvence_suite(triangle_count, seed)
    return out

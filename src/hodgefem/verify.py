"""Verification suite shared by the command line tool and the test suite.

Three groups of checks:

  identity_suite     exact rational identities of the form calculus
                     (composition laws, star involution, Koszul scalings,
                     and the two quadratic-enrichment identities)
  norm_suite         the norm equality |d(koszul eta)| = sqrt(k+1) |koszul eta|_H1
                     for constant eta, checked exactly on random simplices;
                     the Koszul families are paired once per (n, k) in
                     each call, so each simplex costs one moment set
  unisolvence_suite  DOF matrix conditioning (one condition number
                     call over the stacked float matrices), the
                     projection property of the interpolation (the float
                     DOF matrix against quadrature of the Green
                     functionals), and exact recovery of drawn
                     coefficients by both interpolation algorithms on
                     random triangles, each drawn and tested for shape in
                     integers and Python floats before a Simplex is built

Every check returns a CheckResult; nothing raises on failure, so a
caller can report the full picture.  A singular DOF matrix, exactly or
in floats, is the failed ``dof-matrix-cond-finite`` check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import numpy as np

from .element import (
    DIRECT,
    FOURSTEP,
    build_h2d_form,
    build_h2delta_form,
    dof_values,
    local_element,
    reference_element,
    solve_dofs,
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
from .simplices import Pairing, Simplex, gradient

__all__ = [
    "CheckResult",
    "identity_suite",
    "norm_suite",
    "unisolvence_suite",
    "full_suite",
]

NORM_CASES = ((2, 1), (3, 1), (3, 2))  # the (n, k) of the norm suite, in its order
PROJECTION_BLOCK = 64  # triangles per stacked node-table block of the projection check
PROJECTION_TOL = 1e-10  # bound on the projection check's max coefficient error
RAND_DEGREE = 2  # total degree bound of the random polynomial coefficients
MAX_SHAPE_RATIO = 10.0  # the random triangles' largest shape ratio


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


def _rand_poly(n: int, rng: random.Random) -> Polynomial:
    terms = {}
    # one draw per exponent tuple of total degree <= RAND_DEGREE, in lexicographic order
    for e in product(range(RAND_DEGREE + 1), repeat=n):
        if sum(e) <= RAND_DEGREE:
            c = _rand_fraction(rng)
            if c:
                terms[e] = c
    if not terms:
        terms[(0,) * n] = Fraction(1)
    return Polynomial(n, terms)


def _rand_form(n: int, k: int, rng: random.Random) -> PolyForm:
    return PolyForm(n, k, {a: _rand_poly(n, rng) for a in multi_indices(k, n)})


def _rand_constant_coefficients(n: int, k: int, rng: random.Random) -> dict:
    """The nonzero coefficients of a random constant k-form, by multi-index."""
    coeffs = {}
    for a in multi_indices(k, n):
        c = _rand_fraction(rng)
        if c:
            coeffs[a] = c
    return coeffs or {tuple(range(1, k + 1)): Fraction(1)}


def _rand_constant_form(n: int, k: int, rng: random.Random) -> PolyForm:
    coeffs = _rand_constant_coefficients(n, k, rng)
    return PolyForm(n, k, {a: Polynomial.constant(n, c) for a, c in coeffs.items()})


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


class _KoszulNorms:
    """Both sides of the norm equality on (n, k), paired once.

    For the basis e_a of constant (k+1)-forms, the forms koszul(e_a),
    their d and their gradients live in centered coordinates, so they do
    not depend on the simplex.  One ``Pairing`` of each family holds
    their coefficient blocks; on a simplex, one ``integer_moments`` and
    two ``Pairing.contract`` calls give the integer Gram matrices G_d and
    G_grad, and for eta = sum_a c_a e_a both sides are the exact integer
    quadratic forms c^T G_d c and (k+1) c^T G_grad c.
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.alphas = multi_indices(k + 1, n)
        mus = [koszul(PolyForm.basis(n, a)) for a in self.alphas]
        ds = [exterior_derivative(mu) for mu in mus]
        grads = [gradient(mu) for mu in mus]
        self.d, self.grad = Pairing(ds, ds), Pairing(grads, grads)
        self.exponents = sorted({*self.d.exponents, *self.grad.exponents})

    def sides(self, simplex: Simplex, eta: dict) -> tuple[Fraction, Fraction]:
        """|d koszul eta|^2 and (k+1) |koszul eta|_H1^2 on the simplex, for the
        constant form eta given by its coefficients."""
        coeffs = [Fraction(eta.get(a, 0)) for a in self.alphas]
        q = math.lcm(*(x.denominator for x in coeffs))
        c = [x.numerator * (q // x.denominator) for x in coeffs]
        moments, mden = simplex.integer_moments(self.exponents)

        def quadratic(pairing):
            rows, den = pairing.contract(moments, mden)
            return Fraction(sum(a * sum(map(mul, row, c)) for a, row in zip(c, rows)), den * q * q)

        return quadratic(self.d), (self.k + 1) * quadratic(self.grad)


def _norm_draws(count: int, seed: int):
    """The norm suite's draws in its order, both sides evaluated.

    Yields (n, k, simplex, eta, lhs, rhs) for ``count`` simplices per case
    of ``NORM_CASES``, with eta the coefficients of the drawn constant
    (k+1)-form and lhs, rhs as ``_KoszulNorms.sides``.
    """
    rng = random.Random(seed + 1)
    for n, k in NORM_CASES:
        norms = _KoszulNorms(n, k)
        for _ in range(count):
            S = _rand_simplex(n, rng)
            eta = _rand_constant_coefficients(n, k + 1, rng)
            yield (n, k, S, eta, *norms.sides(S, eta))


def norm_suite(count: int = 100, seed: int = 0) -> list[CheckResult]:
    """|d(koszul eta)|^2 = (k+1) |koszul eta|_H1^2, exact per random simplex.

    The Koszul families are paired once per (n, k) in each call
    (``_KoszulNorms``), never across calls, so a change to the form
    calculus is seen by the next call.
    """
    worst = dict.fromkeys(NORM_CASES, Fraction(0))
    for n, k, _, _, lhs, rhs in _norm_draws(count, seed):
        if lhs != rhs:
            worst[n, k] = max(worst[n, k], abs(lhs - rhs))
    return [
        CheckResult(
            f"d-norm-equals-sqrt(k+1)-h1[n={n},k={k}]",
            not gap,
            f"gap {float(gap):.3e}" if gap else "exact on all simplices",
        )
        for (n, k), gap in worst.items()
    ]


def _shape_ratio(points, den: int) -> float:
    """h / inradius of the triangle with integer vertices ``points`` over
    ``den``, counterclockwise, in Python floats.

    The float vertices are exact here (``_rand_triangle``'s dyadic
    coordinates), and each step rounds as the numpy evaluation of the same
    formula (float vertex arrays, ``np.linalg.det`` of each facet's Gram
    matrix) does, so the ratio is bit for bit that evaluation's: a facet's
    length is the square root of exp(log(|e|^2)), which is how
    ``np.linalg.det`` evaluates a 1 x 1 determinant.
    """
    d2 = max((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 for a, b in combinations(points, 2))
    h = math.sqrt(d2 / den**2)  # int / int rounds once, as float(Fraction)
    verts = [(x / den, y / den) for x, y in points]
    total = 0.0
    for skip in range(3):
        (x0, y0), (x1, y1) = (verts[i] for i in range(3) if i != skip)
        ex, ey = x1 - x0, y1 - y0
        total += math.sqrt(math.exp(math.log(ex * ex + ey * ey)))
    (x0, y0), (x1, y1), (x2, y2) = points
    area = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)) / (2 * den * den)
    return h / (2 * area / total)


def _rand_triangle(rng: random.Random) -> Simplex:
    """Random shape-regular triangle, rational vertices, varied size.

    Each draw is tested on its integer coordinates over 1024 before a
    Simplex is built, so a degenerate or too flat draw builds nothing.
    """
    shift = rng.randint(-4, 2) + 4  # coordinates k/64 times 2^(shift - 4), over 1024
    while True:
        points = [(rng.randint(-64, 64) << shift, rng.randint(-64, 64) << shift) for _ in range(3)]
        (x0, y0), (x1, y1), (x2, y2) = points
        det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        if det == 0:
            continue
        if det < 0:  # the vertex order of Simplex: counterclockwise
            points[1], points[2] = points[2], points[1]
        if _shape_ratio(points, 1024) <= MAX_SHAPE_RATIO:
            return Simplex([(Fraction(x, 1024), Fraction(y, 1024)) for x, y in points])


def _projection_error(vertices, volumes, shape_scale, test_scale, M) -> float:
    """max |M^-1 V - I| over the stacked triangles, V the quadrature DOFs.

    Interpolating each shape basis form returns its unit vector.  Its DOF
    values V, the node tables' ``shape`` times their ``rows``, come from
    float quadrature of the Green functionals, independent of the exact
    pairing that built M, so M^-1 V = I tests the DOF matrix against the
    functionals.  The node tables are stacked ``tables`` calls of
    ``PROJECTION_BLOCK`` triangles each; each triangle's values do not
    depend on the block, so the max is that of one stack.
    """
    ref = reference_element(2, 1)
    errors = []
    for lo in range(0, len(M), PROJECTION_BLOCK):
        block = slice(lo, lo + PROJECTION_BLOCK)
        tab = ref.tables(vertices[block], volumes[block], shape_scale[block], test_scale[block], 6)
        stack = len(tab["shape"])
        values = tab["shape"].reshape(stack, 6, -1) @ tab["rows"].reshape(stack, -1, 6)
        X = np.linalg.solve(M[block], values.transpose(0, 2, 1))
        errors.append(np.max(np.abs(X - np.eye(6))))
    return float(np.max(errors, initial=0.0))  # a NaN propagates, as in one stack


def unisolvence_suite(count: int = 1000, seed: int = 0) -> list[CheckResult]:
    """DOF matrix conditioning and interpolation checks on random triangles.

    The condition numbers are one ``np.linalg.cond`` of the stacked float
    DOF matrices, after the loop.  A DOF matrix that is singular, exactly
    (the exact solve finds no pivot) or in floats (an infinite condition
    number), fails ``dof-matrix-cond-finite`` and ends the suite.
    """
    rng = random.Random(seed + 2)
    mismatched = 0
    singular = [CheckResult("dof-matrix-cond-finite", False, "singular matrix hit")]
    # per triangle: centered vertices, area, float S and E, float DOF matrix
    vertices, volumes, test_scale = np.empty((count, 3, 2)), np.empty(count), np.empty((count, 6))
    shape_scale, M = np.empty((count, 6, 6)), np.empty((count, 6, 6))
    for i in range(count):
        S = _rand_triangle(rng)
        matrix = local_element(S, 1)
        vertices[i], volumes[i], M[i] = S.centered, S.volume, matrix.as_float
        shape_scale[i], test_scale[i] = matrix.scaling.floats()
        # both algorithms return the coefficients of a generic member of
        # the space exactly, solving from one exact DOF evaluation
        drawn = [_rand_fraction(rng) for _ in range(6)]
        dofs = dof_values(matrix.combine(drawn), matrix)
        try:  # the count and the exactness of dofs hold, so only a singular matrix raises
            solved = [solve_dofs(dofs, matrix, method=m) for m in (DIRECT, FOURSTEP)]
        except ValueError:
            return singular
        if any(x != drawn for x in solved):
            mismatched += 1
    conds = np.linalg.cond(M)
    if not np.all(np.isfinite(conds)):
        return singular
    max_cond = float(np.max(conds, initial=0.0))
    max_proj = _projection_error(vertices, volumes, shape_scale, test_scale, M)
    return [
        CheckResult(
            "dof-matrix-cond-finite", True, f"max cond {max_cond:.3e} over {count} triangles"
        ),
        CheckResult(
            "interpolation-projection",
            max_proj <= PROJECTION_TOL,
            f"max coefficient error {max_proj:.3e}",
        ),
        CheckResult(
            "fourstep-equals-direct",
            mismatched == 0,
            f"drawn coefficients missed on {mismatched} of {count} triangles"
            if mismatched
            else f"drawn coefficients recovered exactly on all {count} triangles",
        ),
    ]


def full_suite(
    seed: int = 0, norm_count: int = 100, triangle_count: int = 1000
) -> list[CheckResult]:
    out = identity_suite(seed)
    out += norm_suite(norm_count, seed)
    out += unisolvence_suite(triangle_count, seed)
    return out

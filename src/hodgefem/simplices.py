"""Simplices, exact moment integration, and simplex quadrature.

The exact path integrates polynomials in barycenter-centered coordinates
over a simplex with Fraction arithmetic, via the classical formula

    integral_T  prod_i lambda_i^{a_i}  =  n! |T| * prod_i a_i! / (|a| + n)!

after expanding centered monomials in barycentric coordinates.  This is
what the element algebra (Gram matrices, DOF functionals on polynomial
data) runs on, so unisolvence and identity checks are exact.

The float path is a Grundmann-Moller simplex rule of odd degree 2s+1,
valid in any dimension, with rational nodes and weights generated once
per (dimension, degree) and cached.  Rules are fully symmetric with
interior nodes; weights of both signs occur for s >= 1, which is normal
for this family.  Requested orders 2..10 map to the smallest odd degree
that is at least the order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .forms import Polynomial, PolyForm, as_fraction

__all__ = [
    "Simplex",
    "integrate_poly",
    "l2_inner",
    "h1_seminorm_sq",
    "quadrature_rule",
    "quadrature",
    "solve_rational",
]

MIN_QUAD_ORDER = 2
MAX_QUAD_ORDER = 10


def _gauss_jordan(
    matrix: list[list[Fraction]], rhs: list[list[Fraction]]
) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Exact Gauss-Jordan elimination on [matrix | rhs] with partial pivoting.

    Returns (det(matrix), X) with matrix X = rhs, or (0, None) when the
    matrix is singular.  ``rhs`` may have zero columns, which leaves only
    the determinant.
    """
    size = len(matrix)
    ncols = len(rhs[0]) if rhs else 0
    aug = [list(matrix[r]) + list(rhs[r]) for r in range(size)]
    det = Fraction(1)
    for col in range(size):
        pivot = None
        best = Fraction(0)
        for r in range(col, size):
            v = abs(aug[r][col])
            if v > best:
                best = v
                pivot = r
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return det, [row[size : size + ncols] for row in aug]


def solve_rational(matrix: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve A X = B exactly (B given column-stacked as rows of rhs^T layout).

    ``matrix`` is square (list of rows); ``rhs`` is a list of rows of the
    right-hand side block (same row count as the matrix, any number of
    columns).  Returns X as a list of rows.  Raises on singular input.
    """
    _, sol = _gauss_jordan(matrix, rhs)
    if sol is None:
        raise ValueError("singular rational system")
    return sol


class Simplex:
    """An n-simplex with exact rational vertices.

    Vertices are normalized to positive orientation (the last two are
    swapped when the input is negatively oriented); degenerate input
    raises ValueError.  Exposes exact volume, barycenter and second
    moments, plus float diameter ``h`` and shape ratio h / inradius.
    ``h_scale`` is a rational Chebyshev-metric diameter, an h-equivalent
    surrogate used where exact rational scaling is needed.
    """

    __slots__ = (
        "n",
        "vertices",
        "volume",
        "barycenter",
        "centered",
        "h",
        "h_scale",
        "shape_ratio",
        "_moments",
        "second_moments",
    )

    def __init__(self, vertices):
        verts = [tuple(as_fraction(x) for x in v) for v in vertices]
        n = len(verts[0])
        if len(verts) != n + 1:
            raise ValueError(f"an n-simplex needs n+1 vertices, got {len(verts)} in R^{n}")
        if any(len(v) != n for v in verts):
            raise ValueError("vertices have inconsistent dimension")
        rows = [[verts[i + 1][j] - verts[0][j] for j in range(n)] for i in range(n)]
        det, _ = _gauss_jordan(rows, [[] for _ in rows])
        if det == 0:
            raise ValueError("degenerate simplex (zero volume)")
        if det < 0:
            verts[-1], verts[-2] = verts[-2], verts[-1]
            det = -det
        self.n = n
        self.vertices = tuple(verts)
        self.volume = det / math.factorial(n)
        bary = tuple(sum(v[j] for v in verts) / Fraction(n + 1) for j in range(n))
        self.barycenter = bary
        self.centered = tuple(
            tuple(v[j] - bary[j] for j in range(n)) for v in verts
        )
        diffs2 = []
        cheb = Fraction(0)
        for a, b in combinations(verts, 2):
            d2 = sum((x - y) ** 2 for x, y in zip(a, b))
            diffs2.append(float(d2))
            c = max(abs(x - y) for x, y in zip(a, b))
            if c > cheb:
                cheb = c
        self.h = math.sqrt(max(diffs2))
        self.h_scale = cheb
        self._moments: dict[tuple[int, ...], Fraction] = {}
        self.second_moments = tuple(
            self.monomial_integral(tuple(2 if i == j else 0 for i in range(n))) / self.volume
            for j in range(n)
        )
        self.shape_ratio = self.h / self._inradius()

    def _inradius(self) -> float:
        """n * volume / total facet measure, all in floats."""
        verts = [np.array([float(x) for x in v]) for v in self.vertices]
        total = 0.0
        for skip in range(self.n + 1):
            facet = [verts[i] for i in range(self.n + 1) if i != skip]
            edges = np.array([facet[i + 1] - facet[0] for i in range(self.n - 1)])
            if self.n == 1:
                total += 1.0
                continue
            gram = edges @ edges.T
            total += math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(self.n - 1)
        return self.n * float(self.volume) / total

    def monomial_integral(self, exponents: tuple[int, ...]) -> Fraction:
        """Exact integral over the simplex of prod_j (x^j - barycenter^j)^{e_j}."""
        e = tuple(exponents)
        cached = self._moments.get(e)
        if cached is not None:
            return cached
        n = self.n
        if len(e) != n:
            raise ValueError(f"exponent tuple {e} has wrong length for n={n}")
        # expand prod_j (sum_i lambda_i u_i[j])^{e_j} into barycentric monomials
        poly: dict[tuple[int, ...], Fraction] = {tuple([0] * (n + 1)): Fraction(1)}
        for j in range(n):
            coeffs = [self.centered[i][j] for i in range(n + 1)]
            for _ in range(e[j]):
                nxt: dict[tuple[int, ...], Fraction] = {}
                for expo, c in poly.items():
                    for i in range(n + 1):
                        if coeffs[i] == 0:
                            continue
                        ne = list(expo)
                        ne[i] += 1
                        key = tuple(ne)
                        s = nxt.get(key, Fraction(0)) + c * coeffs[i]
                        if s == 0:
                            nxt.pop(key, None)
                        else:
                            nxt[key] = s
                poly = nxt
                if not poly:
                    break
            if not poly:
                break
        total = Fraction(0)
        nfact_vol = math.factorial(n) * self.volume
        for expo, c in poly.items():
            num = 1
            for a in expo:
                num *= math.factorial(a)
            total += c * nfact_vol * Fraction(num, math.factorial(sum(expo) + n))
        self._moments[e] = total
        return total

    def barycentric_coordinates(self) -> list[Polynomial]:
        """The n+1 barycentric coordinates (hat functions), exact and linear.

        lambda_i(x) = G_i . x + g0_i in centered coordinates, read off the
        solution of [U | 1] [G^T; g0] = I with U the centered vertices.
        """
        n = self.n
        rows = [[*self.centered[i], Fraction(1)] for i in range(n + 1)]
        eye = [[Fraction(1 if r == c else 0) for c in range(n + 1)] for r in range(n + 1)]
        sol = solve_rational(rows, eye)  # column i: gradient, then constant, of lambda_i
        units = [tuple(int(j == l) for l in range(n)) for j in range(n)]
        return [
            Polynomial(n, {(0,) * n: sol[n][i], **{units[j]: sol[j][i] for j in range(n)}})
            for i in range(n + 1)
        ]

    def __repr__(self) -> str:
        pts = ", ".join("(" + ", ".join(str(x) for x in v) + ")" for v in self.vertices)
        return f"Simplex[{pts}]"


def integrate_poly(p: Polynomial, simplex: Simplex) -> Fraction:
    """Exact integral of a centered-coordinate polynomial over the simplex."""
    if p.n != simplex.n:
        raise ValueError(f"polynomial in {p.n} variables on a {simplex.n}-simplex")
    total = Fraction(0)
    for e, c in p.terms.items():
        total += c * simplex.monomial_integral(e)
    return total


def l2_inner(u: PolyForm, v: PolyForm, simplex: Simplex) -> Fraction:
    """Exact L2 inner product of two k-forms (componentwise, orthonormal frame)."""
    if u.n != v.n or u.k != v.k:
        raise ValueError(
            f"inner product of a {u.k}-form in R^{u.n} with a {v.k}-form in R^{v.n}"
        )
    if u.n != simplex.n:
        raise ValueError("forms and simplex have different ambient dimension")
    total = Fraction(0)
    small, large = (u, v) if len(u.comps) <= len(v.comps) else (v, u)
    for alpha, p in small.comps.items():
        q = large.comps.get(alpha)
        if q is not None:
            total += integrate_poly(p * q, simplex)
    return total


def h1_seminorm_sq(w: PolyForm, simplex: Simplex) -> Fraction:
    """Exact squared H1 seminorm: sum over components and partials."""
    total = Fraction(0)
    for _, p in w.comps.items():
        for j in range(1, w.n + 1):
            dp = p.partial(j)
            if not dp.is_zero():
                total += integrate_poly(dp * dp, simplex)
    return total


def _order_to_s(order: int) -> int:
    if not (MIN_QUAD_ORDER <= order <= MAX_QUAD_ORDER):
        raise ValueError(
            f"quadrature order {order} outside supported range "
            f"{MIN_QUAD_ORDER}..{MAX_QUAD_ORDER}"
        )
    return (order - 1 + 1) // 2  # smallest s with 2s+1 >= order


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def quadrature_rule(n: int, order: int) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """Grundmann-Moller rule: (barycentric nodes, weights) for the unit simplex.

    Weights sum to 1/n! (the measure of the standard simplex) and the rule
    is exact for polynomials of total degree 2s+1 where s = ceil((order-1)/2).
    Both nodes and weights are exact rationals; callers scale weights by
    n! * |T| to integrate over a general simplex T.
    """
    s = _order_to_s(order)
    d = 2 * s + 1
    nodes: list[tuple[Fraction, ...]] = []
    weights: list[Fraction] = []
    for i in range(s + 1):
        denom = d + n - 2 * i
        coeff = Fraction((-1) ** i * denom**d, 4**s * math.factorial(i) * math.factorial(d + n - i))
        for beta in _compositions(s - i, n + 1):
            nodes.append(tuple(Fraction(2 * b + 1, denom) for b in beta))
            weights.append(coeff)
    return tuple(nodes), tuple(weights)


def rule_points(simplex: Simplex, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Float quadrature points (nq, n) and weights (nq,) for a simplex."""
    bary, w = quadrature_rule(simplex.n, order)
    verts = np.array([[float(x) for x in v] for v in simplex.vertices])
    pts = np.array([[float(b) for b in node] for node in bary]) @ verts
    scale = float(simplex.volume) * math.factorial(simplex.n)
    weights = np.array([float(x) for x in w]) * scale
    return pts, weights


def quadrature(f, simplex: Simplex, order: int = 6):
    """Approximate the integral over the simplex of a pointwise callback.

    ``f`` maps a coordinate array of shape (n,) to a float or an ndarray
    (e.g. the component vector of a k-form); the result has the same
    shape as a single evaluation.
    """
    pts, weights = rule_points(simplex, order)
    total = None
    for x, w in zip(pts, weights):
        val = np.asarray(f(x), dtype=float) * w
        total = val if total is None else total + val
    out = np.asarray(total)
    return float(out) if out.ndim == 0 else out

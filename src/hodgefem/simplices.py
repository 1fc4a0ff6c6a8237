"""Simplices, exact moment integration, and simplex quadrature.

The exact path integrates polynomials in barycenter-centered coordinates
over a simplex via the classical formula

    integral_T  prod_i lambda_i^{a_i}  =  n! |T| * prod_i a_i! / (|a| + n)!

after expanding centered monomials in barycentric coordinates.  The
expansion runs in Python ints over the common denominator of the
centered vertices (``Simplex.integer_moments``), as coefficient lists
over the barycentric monomials of each degree (indexed once per
dimension and degree), and each moment becomes one Fraction only when
asked for (``monomial_integral``).  This is what
the element algebra (Gram matrices, DOF functionals on polynomial data)
runs on, so unisolvence and identity checks are exact.

``l2_gram`` is the one pairing kernel: the matrix of L2 inner products
of two families of forms (or of tuples of forms in a direct sum) is the
exact integer product U M V^T of the families' coefficient matrices
over (component, monomial) with the integer moment matrix, over one
common denominator, and each entry is made a Fraction once.  It comes
in two halves: ``Pairing`` holds the simplex-free coefficient blocks of
two families, built once, and ``Pairing.contract`` is the per-simplex
integer product, so fixed families (the element's reference families)
are paired on many simplices without rebuilding their blocks.
``l2_inner`` is the 1 x 1 case.  ``_bareiss`` is the one exact
elimination, fraction-free on integer rows: ``_gauss_jordan`` reduces
rows of Fractions or ints to coprime integer rows for it, giving the
determinant for ``Simplex`` and the solutions for ``solve_rational``,
and ``Simplex.hat_coefficients`` runs it on the integer centered
vertices.

The float path rests on ``quadrature_rule``, a Grundmann-Moller simplex
rule of odd degree 2s+1, valid in any dimension, with rational
barycentric nodes and weights generated once per (dimension, degree)
and cached; its callers (the element's node tables) map the nodes to a
simplex themselves.  Rules are fully symmetric with interior nodes;
weights of both signs occur for s >= 1, which is normal for this
family.  Requested orders 2..10 map to the smallest odd degree that is
at least the order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add, mul

import numpy as np

from .forms import Polynomial, PolyForm, as_fraction

__all__ = [
    "Simplex",
    "Pairing",
    "as_fractions",
    "integrate_poly",
    "l2_gram",
    "l2_inner",
    "h1_seminorm_sq",
    "quadrature_rule",
    "solve_rational",
]

MIN_QUAD_ORDER = 2
MAX_QUAD_ORDER = 10


def _bareiss(aug: list[list[int]], size: int) -> tuple[int, int] | None:
    """Fraction-free Gauss-Jordan elimination on integer rows [A | B], in place.

    Bareiss elimination keeps every entry an integer minor: after the
    step on column k, each row i != k is updated as

        a_ij <- (a_kk a_ij - a_ik a_kj) / p,   p the previous pivot,

    with an exact division.  At the end every diagonal entry is the
    determinant D of the row-swapped A and the right-hand block is D X,
    with A X = B.  Returns (sign of the row swaps, D), or None when A is
    singular.
    """
    sign, prev = 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            sign = -sign
        prow = aug[col]
        p = prow[col]
        for r in range(size):
            if r != col:
                row = aug[r]
                f = row[col]
                aug[r] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        prev = p
    return sign, prev


def _gauss_jordan(matrix, rhs) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Exact fraction-free Gauss-Jordan elimination on [matrix | rhs].

    Each row of [matrix | rhs] is first scaled to Python ints by the
    least common denominator of its entries and divided by the greatest
    common divisor of the result, which changes neither the solution
    nor, up to the product of the scales, the determinant.  ``_bareiss``
    then eliminates, and each entry of X and the determinant are one
    Fraction each.  Returns (det(matrix), X) with matrix X = rhs, or
    (0, None) when the matrix is singular.  ``rhs`` may have zero
    columns, which leaves only the determinant.  Entries may be
    Fractions or ints.
    """
    size = len(matrix)
    aug = []
    num = den = 1  # det(matrix) = det(aug) num / den
    for r in range(size):
        row = [*matrix[r], *rhs[r]]
        lcd = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (lcd // v.denominator) for v in row]
        g = math.gcd(*ints) or 1
        aug.append([v // g for v in ints])
        num *= g
        den *= lcd
    done = _bareiss(aug, size)
    if done is None:
        return Fraction(0), None
    sign, prev = done
    return Fraction(sign * prev * num, den), as_fractions([row[size:] for row in aug], prev)


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


def _raise(a: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The exponent tuple a with entry v raised by one."""
    return (*a[:v], a[v] + 1, *a[v + 1 :])


@lru_cache(maxsize=None)
def _barycentric_monomials(n: int, top: int) -> tuple[list, list]:
    """The barycentric monomials a of n+1 variables of each degree m <= top.

    Returns (up, weights): up[m][i][v] is the index among degree m + 1
    of the monomial a + e_v, a the i-th of degree m, and weights[m][i] is
    prod_v a_v!, the factor of a's integral in ``integer_moments``.
    """
    levels = [[(0,) * (n + 1)]]
    for _ in range(top):
        levels.append(sorted({_raise(a, v) for a in levels[-1] for v in range(n + 1)}))
    index = [{a: i for i, a in enumerate(level)} for level in levels]
    up = [
        [[index[m + 1][_raise(a, v)] for v in range(n + 1)] for a in level]
        for m, level in enumerate(levels[:-1])
    ]
    weights = [[math.prod(map(math.factorial, a)) for a in level] for level in levels]
    return up, weights


class Simplex:
    """An n-simplex with exact rational vertices.

    Vertices are normalized to positive orientation (the last two are
    swapped when the input is negatively oriented); degenerate input
    raises ValueError.  Exposes exact volume, barycenter and second
    moments, plus float diameter ``h`` and shape ratio h / inradius; the
    second moments and the shape ratio are computed when first read.
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
        "_shape_ratio",
        "_moments",
        "_centered_int",
        "_second_moments",
    )

    def __init__(self, vertices):
        verts = [tuple(as_fraction(x) for x in v) for v in vertices]
        n = len(verts[0])
        if len(verts) != n + 1:
            raise ValueError(f"an n-simplex needs n+1 vertices, got {len(verts)} in R^{n}")
        if any(len(v) != n for v in verts):
            raise ValueError("vertices have inconsistent dimension")
        # integer coordinates over the vertices' common denominator
        den = math.lcm(*(x.denominator for v in verts for x in v))
        pts = [[x.numerator * (den // x.denominator) for x in v] for v in verts]
        det, _ = _gauss_jordan([[p - q for p, q in zip(v, pts[0])] for v in pts[1:]], [[]] * n)
        if det == 0:
            raise ValueError("degenerate simplex (zero volume)")
        if det < 0:
            verts[-1], verts[-2] = verts[-2], verts[-1]
            pts[-1], pts[-2] = pts[-2], pts[-1]
            det = -det
        self.n = n
        self.vertices = tuple(verts)
        self.volume = det / (den**n * math.factorial(n))
        sums = [sum(col) for col in zip(*pts)]
        self.barycenter = tuple(Fraction(t, (n + 1) * den) for t in sums)
        units = [[(n + 1) * x - t for x, t in zip(p, sums)] for p in pts]
        cden = (n + 1) * den
        g = math.gcd(cden, *(x for u in units for x in u))
        self._centered_int = (tuple(tuple(x // g for x in u) for u in units), cden // g)
        self.centered = tuple(tuple(Fraction(x, cden) for x in u) for u in units)
        d2 = max(sum((x - y) ** 2 for x, y in zip(a, b)) for a, b in combinations(pts, 2))
        self.h = math.sqrt(d2 / den**2)  # int / int rounds once, as float(Fraction)
        cheb = max(abs(x - y) for a, b in combinations(pts, 2) for x, y in zip(a, b))
        self.h_scale = Fraction(cheb, den)
        self._moments: dict[tuple[int, ...], int] = {}
        self._second_moments: tuple[Fraction, ...] | None = None
        self._shape_ratio: float | None = None

    @property
    def second_moments(self) -> tuple[Fraction, ...]:
        """Mean of (x^j)^2 over the simplex for each j, centered coordinates.

        One ``integer_moments`` call, when first read.
        """
        if self._second_moments is None:
            squares = [tuple(2 * (i == j) for i in range(self.n)) for j in range(self.n)]
            num, den = self.integer_moments(squares)
            self._second_moments = tuple(Fraction(num[e], den) / self.volume for e in squares)
        return self._second_moments

    @property
    def shape_ratio(self) -> float:
        """h / inradius, when first read."""
        if self._shape_ratio is None:
            self._shape_ratio = self.h / self._inradius()
        return self._shape_ratio

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

    def integer_moments(self, exponents) -> tuple[dict[tuple[int, ...], int], int]:
        """Exact integrals of centered monomials as Python ints over one denominator.

        With the centered vertices written as integers U over one common
        denominator d, x^e is d^{-|e|} times a homogeneous polynomial in
        the barycentric coordinates with integer coefficients c_a,
        expanded in Python ints, and

            integral_T x^e = n! |T| * sum_a c_a prod_i a_i! / (d^{|e|} (|e| + n)!).

        Returns (num, den) with integral_T x^e = num[e] / den for each e
        of ``exponents``, den = denominator(n! |T|) d^p (p + n)! and p the
        largest degree among them.
        """
        n = self.n
        units, d = self._centered_int
        exponents = [tuple(e) for e in exponents]
        top = max(map(sum, exponents), default=0)
        det = math.factorial(n) * self.volume
        scale = [
            det.numerator * d ** (top - m) * (math.factorial(top + n) // math.factorial(m + n))
            for m in range(top + 1)
        ]
        # prod_j (sum_i lambda_i U[i][j])^{e_j} as coefficients over the
        # barycentric monomials of its degree: walk down to a known
        # expansion, then multiply back by one linear factor per step
        up, weights = _barycentric_monomials(n, top)
        expansions = {(0,) * n: [1]}
        num = {}
        for e in exponents:
            total = self._moments.get(e)
            if total is None:
                if len(e) != n:
                    raise ValueError(f"exponent tuple {e} has wrong length for n={n}")
                chain = []
                low = e
                while low not in expansions:
                    j = next(j for j in range(n) if low[j])
                    chain.append((low, j))
                    low = (*low[:j], low[j] - 1, *low[j + 1 :])
                poly = expansions[low]
                for high, j in reversed(chain):
                    factor = [u[j] for u in units]
                    nxt = [0] * len(weights[sum(high)])
                    for c, targets in zip(poly, up[sum(high) - 1]):
                        if c:
                            for t, f in zip(targets, factor):
                                nxt[t] += c * f
                    expansions[high] = poly = nxt
                total = sum(map(mul, poly, weights[sum(e)]))
                self._moments[e] = total
            num[e] = total * scale[sum(e)]
        return num, det.denominator * d**top * math.factorial(top + n)

    def monomial_integral(self, exponents: tuple[int, ...]) -> Fraction:
        """Exact integral over the simplex of prod_j (x^j - barycenter^j)^{e_j}.

        One Fraction per moment, from ``integer_moments``.
        """
        e = tuple(exponents)
        num, den = self.integer_moments([e])
        return Fraction(num[e], den)

    def hat_coefficients(self) -> tuple[list[list[int]], int]:
        """The n+1 barycentric coordinates (hat functions) as integer coefficient rows.

        Returns (rows, den) with lambda_i(x) = (rows[i][0] + rows[i][1:] . x)
        / den in centered coordinates.  With the centered vertices written
        as integers U over d, [U | d] [G^T; g0] = d I: one ``_bareiss``
        on integer rows, with den its positive determinant.
        """
        n = self.n
        units, d = self._centered_int
        aug = [[*u, d, *(d * (r == c) for c in range(n + 1))] for r, u in enumerate(units)]
        _, den = _bareiss(aug, n + 1)  # a nondegenerate simplex: never singular
        sol = [row[n + 1 :] if den > 0 else [-v for v in row[n + 1 :]] for row in aug]
        # column i of sol: den G_i, then den g0_i
        return [[sol[n][i], *(sol[j][i] for j in range(n))] for i in range(n + 1)], abs(den)

    def barycentric_coordinates(self) -> list[Polynomial]:
        """The n+1 barycentric coordinates (hat functions), exact and linear,
        from ``hat_coefficients``."""
        n = self.n
        rows, den = self.hat_coefficients()
        units = [(0,) * n] + [tuple(int(j == l) for l in range(n)) for j in range(n)]
        return [Polynomial(n, {u: Fraction(c, den) for u, c in zip(units, row)}) for row in rows]

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


def _coefficient_blocks(family) -> tuple[int, dict]:
    """A family's coefficients as Python-int matrices over one common denominator.

    ``family`` lists tuples of forms.  Returns (den, blocks) with
    blocks[slot, alpha] = (monomials, rows): rows[i] holds den times the
    coefficients of the dx^alpha component of member i's form ``slot``
    at those monomials.
    """
    den = math.lcm(
        *(
            c.denominator
            for member in family
            for w in member
            for p in w.comps.values()
            for c in p.terms.values()
        )
    )
    blocks = {}
    for slot in range(len(family[0]) if family else 0):
        forms = [member[slot] for member in family]
        for alpha in {a for w in forms for a in w.comps}:
            polys = [w.comps.get(alpha) for w in forms]
            monomials = sorted({e for p in polys if p is not None for e in p.terms})
            rows = [
                [0] * len(monomials)
                if p is None
                else [
                    c.numerator * (den // c.denominator) if (c := p.terms.get(e)) else 0
                    for e in monomials
                ]
                for p in polys
            ]
            blocks[slot, alpha] = (monomials, rows)
    return den, blocks


class Pairing:
    """The simplex-free half of ``l2_gram`` for two families, built once.

    Members are forms or tuples of forms in a direct sum, as for
    ``l2_gram``.  Holds U, the first family's integer coefficient rows
    stacked over the (slot, component) blocks that both families use;
    for each such block the second family's rows V_b and the exponents
    e + f of the moment matrix M_b[e][f] = integral x^(e+f); ``den``, the
    product of the two families' denominators; and ``exponents``, every
    moment that ``contract`` reads.
    """

    __slots__ = ("n", "den", "exponents", "u", "blocks", "columns")

    def __init__(self, us, vs):
        same = us is vs
        us = [u if isinstance(u, tuple) else (u,) for u in us]
        vs = us if same else [v if isinstance(v, tuple) else (v,) for v in vs]
        members = us + vs
        for member in members:
            if len(member) != len(members[0]):
                raise ValueError("families pair members of different direct sums")
            for w, first in zip(member, members[0]):
                if (w.n, w.k) != (first.n, first.k):
                    raise ValueError(
                        f"inner product of a {first.k}-form in R^{first.n} "
                        f"with a {w.k}-form in R^{w.n}"
                    )
        self.n = members[0][0].n if members else None
        uden, ublocks = _coefficient_blocks(us)
        vden, vblocks = (uden, ublocks) if same else _coefficient_blocks(vs)
        self.den = uden * vden
        self.columns = len(vs)
        self.u = [[] for _ in us]
        self.blocks = []
        exponents = set()
        for key in ublocks:
            if key not in vblocks:
                continue
            (umono, urows), (vmono, vrows) = ublocks[key], vblocks[key]
            for row, urow in zip(self.u, urows):
                row += urow
            sums = [[tuple(map(add, e, f)) for f in vmono] for e in umono]
            exponents.update(x for row in sums for x in row)
            self.blocks.append((vrows, sums))
        self.exponents = sorted(exponents)

    def contract(self, moments: dict, mden: int) -> tuple[list[list[int]], int]:
        """U M V^T in Python ints, stacked over the blocks, and its denominator.

        ``moments``, ``mden`` are ``Simplex.integer_moments`` of (at least)
        ``exponents``: entry (i, j) of the pairing on that simplex is
        rows[i][j] / den.
        """
        mv = [[] for _ in range(self.columns)]  # (M V^T)^T, stacked over the blocks
        for vrows, sums in self.blocks:
            mrows = [[moments[x] for x in row] for row in sums]
            for col, vrow in zip(mv, vrows):
                col += [sum(map(mul, mrow, vrow)) for mrow in mrows]
        rows = [[sum(map(mul, urow, col)) for col in mv] for urow in self.u]
        return rows, self.den * mden


def as_fractions(rows, den: int) -> list[list[Fraction]]:
    """Integer rows over one denominator, one Fraction per entry."""
    return [[Fraction(v, den) for v in row] for row in rows]


def l2_gram(us, vs, simplex: Simplex) -> list[list[Fraction]]:
    """Exact matrix of the L2 inner products <u_i, v_j> of two families.

    The one pairing kernel.  A member of a family is a k-form, or a
    tuple of forms standing for an element of a direct sum of form
    spaces, where the product is the sum of the slotwise L2 products:
    the Green functionals and the graph-norm Gram are such sums.  Each
    family is written as integer matrices U, V over (slot, component,
    monomial) with one common denominator (``Pairing``), and each (slot,
    component) contributes U M V^T, with M[e][f] the moment of the
    centered monomial x^(e+f) as an integer over one common denominator
    (``Pairing.contract``).  The integer products are exact, and each
    entry becomes one Fraction.
    """
    pairing = Pairing(us, vs)
    if pairing.n not in (None, simplex.n):
        raise ValueError("forms and simplex have different ambient dimension")
    return as_fractions(*pairing.contract(*simplex.integer_moments(pairing.exponents)))


def l2_inner(u: PolyForm, v: PolyForm, simplex: Simplex) -> Fraction:
    """Exact L2 inner product of two k-forms (componentwise, orthonormal frame)."""
    return l2_gram([u], [v], simplex)[0][0]


def h1_seminorm_sq(w: PolyForm, simplex: Simplex) -> Fraction:
    """Exact squared H1 seminorm: sum over components and partials.

    The L2 norm of the tuple of partial derivatives (d_1 w, ..., d_n w),
    each taken componentwise, as one ``l2_gram`` on their direct sum.
    """
    grad = tuple(
        PolyForm(w.n, w.k, {alpha: p.partial(j) for alpha, p in w.comps.items()})
        for j in range(1, w.n + 1)
    )
    family = [grad]
    return l2_gram(family, family, simplex)[0][0]


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

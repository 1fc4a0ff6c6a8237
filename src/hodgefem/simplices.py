"""Simplices, exact moment integration, and simplex quadrature.

The exact path integrates polynomials in barycenter-centered coordinates
over a simplex via the classical formula

    integral_T  prod_i lambda_i^{a_i}  =  n! |T| * prod_i a_i! / (|a| + n)!

after expanding centered monomials in barycentric coordinates.  The
expansion runs in Python ints over the common denominator of the
centered vertices (``Simplex.integer_moments``), as coefficient lists
over the barycentric monomials of each degree (indexed once per
dimension and degree), so the moments are integers over one
denominator.  This is what the element algebra (DOF functionals on
polynomial data, the verification suite's norms) runs on, so
unisolvence and identity checks are exact.

``Pairing`` is the one pairing kernel: the matrix of L2 inner products
of two families of forms (or of tuples of forms in a direct sum) is the
exact integer product U M V^T of the families' coefficient matrices
over (component, monomial) with the integer moment matrix, over one
common denominator.  A ``Pairing`` holds the simplex-free coefficient
blocks of two families, built once, and ``Pairing.contract`` is the
per-simplex integer product, so fixed families (the element's reference
families) are paired on many simplices without rebuilding their blocks,
and ``Pairing.against`` pairs a fixed first family with a new second
family (the element's DOF rows with one form's graph) without
rebuilding the first family's blocks.  ``_bareiss`` is the one exact
elimination, fraction-free on integer rows.  ``Simplex`` runs it on its
integer edge rows for the orientation and the volume, and
``element.solve_dofs`` on a DOF matrix's integer rows, augmented with
the DOF values over their common denominator; no elimination in the
package reads a Fraction.

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

from .forms import PolyForm, as_fraction

__all__ = [
    "Simplex",
    "Pairing",
    "gradient",
    "quadrature_rule",
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
    raises ValueError.  The vertices are held as integer coordinates over
    their common denominator, and the orientation and exact ``volume``
    come from one ``_bareiss`` on the integer edge rows.  ``volume`` and
    ``barycenter`` are set at construction.  The centered vertices
    ``centered``, ``h_scale`` (a rational Chebyshev-metric diameter, an
    h-equivalent surrogate used where exact rational scaling is needed)
    and the second moments are computed when first read.
    """

    __slots__ = (
        "n",
        "vertices",
        "volume",
        "barycenter",
        "_points",
        "_den",
        "_centered",
        "_h_scale",
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
        done = _bareiss([[p - q for p, q in zip(v, pts[0])] for v in pts[1:]], n)
        if done is None:
            raise ValueError("degenerate simplex (zero volume)")
        sign, det = done
        if sign * det < 0:
            verts[-1], verts[-2] = verts[-2], verts[-1]
            pts[-1], pts[-2] = pts[-2], pts[-1]
        self.n = n
        self.vertices = tuple(verts)
        self.volume = Fraction(abs(det), den**n * math.factorial(n))
        self.barycenter = tuple(Fraction(sum(col), (n + 1) * den) for col in zip(*pts))
        self._points, self._den = pts, den
        self._centered = self._h_scale = self._centered_int = None
        self._moments: dict[tuple[int, ...], int] = {}
        self._second_moments: tuple[Fraction, ...] | None = None

    def _units(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The centered vertices as coprime integers U over one denominator d."""
        if self._centered_int is None:
            n, pts = self.n, self._points
            sums = [sum(col) for col in zip(*pts)]
            units = [[(n + 1) * x - t for x, t in zip(p, sums)] for p in pts]
            cden = (n + 1) * self._den
            g = math.gcd(cden, *(x for u in units for x in u))
            self._centered_int = (tuple(tuple(x // g for x in u) for u in units), cden // g)
        return self._centered_int

    @property
    def centered(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices minus the barycenter, exact, when first read."""
        if self._centered is None:
            units, d = self._units()
            self._centered = tuple(tuple(Fraction(x, d) for x in u) for u in units)
        return self._centered

    @property
    def h_scale(self) -> Fraction:
        """The Chebyshev diameter, the largest |x_a^j - x_b^j|, when first read."""
        if self._h_scale is None:
            pts = self._points
            cheb = max(abs(x - y) for a, b in combinations(pts, 2) for x, y in zip(a, b))
            self._h_scale = Fraction(cheb, self._den)
        return self._h_scale

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
        units, d = self._units()
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

    def __repr__(self) -> str:
        pts = ", ".join("(" + ", ".join(str(x) for x in v) + ")" for v in self.vertices)
        return f"Simplex[{pts}]"


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


def _members(family) -> list[tuple]:
    """A family's members as tuples of forms (a lone form is a 1-tuple)."""
    return [m if isinstance(m, tuple) else (m,) for m in family]


def _check_direct_sums(members) -> None:
    """Raise ValueError unless every member lies in the direct sum of the first."""
    for member in members:
        if len(member) != len(members[0]):
            raise ValueError("families pair members of different direct sums")
        for w, first in zip(member, members[0]):
            if (w.n, w.k) != (first.n, first.k):
                raise ValueError(
                    f"inner product of a {first.k}-form in R^{first.n} "
                    f"with a {w.k}-form in R^{w.n}"
                )


class Pairing:
    """The L2 products <u_i, v_j> of two families, simplex-free half built once.

    A member of a family is a k-form, or a tuple of forms standing for an
    element of a direct sum of form spaces, where the product is the sum
    of the slotwise L2 products: the Green functionals and the graph-norm
    Gram are such sums.  Holds U, the first family's integer coefficient rows
    stacked over the (slot, component) blocks that both families use;
    for each such block the second family's rows V_b and the exponents
    e + f of the moment matrix M_b[e][f] = integral x^(e+f); ``den``, the
    product of the two families' denominators; and ``exponents``, every
    moment that ``contract`` reads.  ``against`` pairs the same first
    family with another second family, reusing its coefficient blocks.
    """

    __slots__ = ("den", "exponents", "u", "blocks", "columns", "_us", "_ublocks")

    def __init__(self, us, vs):
        same = us is vs
        us = _members(us)
        vs = us if same else _members(vs)
        _check_direct_sums(us + vs)
        self._us, self._ublocks = us, _coefficient_blocks(us)
        self._join(vs, self._ublocks if same else _coefficient_blocks(vs))

    def against(self, vs) -> Pairing:
        """The pairing of this first family with ``vs``, the first family's
        coefficient blocks reused rather than rebuilt."""
        vs = _members(vs)
        _check_direct_sums(self._us[:1] + vs)
        other = object.__new__(Pairing)
        other._us, other._ublocks = self._us, self._ublocks
        other._join(vs, _coefficient_blocks(vs))
        return other

    def _join(self, vs, vcoefficients) -> None:
        """U, the shared blocks and their exponents, for the second family ``vs``."""
        uden, ublocks = self._ublocks
        vden, vblocks = vcoefficients
        self.den = uden * vden
        self.columns = len(vs)
        self.u = [[] for _ in self._us]
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


def gradient(w: PolyForm) -> tuple[PolyForm, ...]:
    """The partial derivatives (d_1 w, ..., d_n w), each taken componentwise."""
    return tuple(
        PolyForm(w.n, w.k, {alpha: p.partial(j) for alpha, p in w.comps.items()})
        for j in range(1, w.n + 1)
    )


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

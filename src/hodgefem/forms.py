"""Exact exterior algebra for differential forms with polynomial coefficients.

Everything in this module is exact: polynomial coefficients are
``fractions.Fraction`` and every operator (Hodge star, exterior
derivative, codifferential, Koszul contraction) maps rational input to
rational output.  Algebraic identities such as d(d(w)) = 0 can therefore be
asserted with zero tolerance.

Conventions
-----------
* The ambient dimension is ``n``; coordinates are numbered 1..n.
* A multi-index is a strictly increasing tuple of coordinate numbers,
  e.g. ``(1, 3)`` stands for dx^1 ^ dx^3.  The empty tuple is the 0-form
  basis "1".  Components of a k-form are stored against multi-indices in
  lexicographic order.
* Polynomial variables are understood as coordinates centered at some
  reference point (for element-level work, the simplex barycenter).  The
  Koszul contraction below contracts with the centered position vector,
  which is exactly the barycenter-shifted Koszul operator used by the
  local spaces.

Two codifferential signs are provided.  ``codifferential`` composes
(-1)^{k n} star d star, which is the convention the exact identity suite
is written against.  ``codifferential_green`` carries the extra factor
(-1)^{n+1} that makes the operator the formal L2-adjoint of d, i.e. the
sign for which <d u, v> = <u, delta v> + boundary terms.  For odd n the
two coincide; for n = 2 the Green variant sends p dx^1 + q dx^2 to
-(d1 p + d2 q), the classical negative divergence.  All degree-of-freedom
functionals and constraint rows in the element/global modules use the
Green variant; the identity suite uses the plain one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping

__all__ = [
    "Polynomial",
    "PolyForm",
    "as_fraction",
    "multi_indices",
    "validate_multi_index",
    "complement",
    "star_sign",
    "wedge_sign",
    "hodge_star",
    "exterior_derivative",
    "codifferential",
    "codifferential_green",
    "koszul",
]

MultiIndex = tuple[int, ...]
Exponents = tuple[int, ...]


def as_fraction(x) -> Fraction:
    """Exact coercion of a Fraction, int, float or numeric string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def validate_multi_index(alpha: MultiIndex, n: int) -> None:
    """Raise ValueError unless ``alpha`` is strictly increasing in 1..n."""
    if not isinstance(alpha, tuple):
        raise ValueError(f"multi-index must be a tuple, got {alpha!r}")
    for a in alpha:
        if not isinstance(a, int) or not (1 <= a <= n):
            raise ValueError(f"multi-index entry {a!r} outside 1..{n}")
    if any(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError(f"multi-index {alpha} is not strictly increasing")


def multi_indices(k: int, n: int) -> list[MultiIndex]:
    """All strictly increasing k-tuples in {1..n}, lexicographic order."""
    if not (0 <= k <= n):
        raise ValueError(f"form degree {k} outside 0..{n}")
    return list(combinations(range(1, n + 1), k))


def complement(alpha: MultiIndex, n: int) -> MultiIndex:
    """The increasingly sorted complement of ``alpha`` in {1..n}."""
    validate_multi_index(alpha, n)
    present = set(alpha)
    return tuple(i for i in range(1, n + 1) if i not in present)


def star_sign(alpha: MultiIndex) -> int:
    """Sign of the permutation sorting (alpha, complement(alpha)).

    Equals (-1)^p with p = sum(alpha) - k(k+1)/2 where k = len(alpha);
    this is the coefficient in star(dx^alpha) = sign * dx^complement.
    The same formula applied to the complement gives the sign of the
    inverse direction.
    """
    k = len(alpha)
    p = sum(alpha) - k * (k + 1) // 2
    return -1 if p % 2 else 1


def wedge_sign(alpha: MultiIndex, beta: MultiIndex) -> tuple[int, MultiIndex]:
    """Sort the concatenation of two disjoint multi-indices.

    Returns (sign, merged) with dx^alpha ^ dx^beta = sign * dx^merged,
    or (0, ()) when the indices overlap.
    """
    if set(alpha) & set(beta):
        return 0, ()
    inversions = sum(1 for a in alpha for b in beta if a > b)
    merged = tuple(sorted(alpha + beta))
    return (-1 if inversions % 2 else 1), merged


class Polynomial:
    """Polynomial in n centered variables with Fraction coefficients.

    Terms map an exponent tuple of length n to a nonzero Fraction.
    Supports +, -, * (by scalar or polynomial), partial derivatives and
    pointwise evaluation.  Instances are immutable by convention.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponents, object] | None = None):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        self.n = n
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(expo)
                if len(expo) != n or any(e < 0 or not isinstance(e, int) for e in expo):
                    raise ValueError(f"bad exponent tuple {expo} for n={n}")
                c = as_fraction(coeff)
                if c:
                    prev = clean.get(expo)
                    if prev is not None:
                        c += prev
                    if c:
                        clean[expo] = c
                    else:
                        del clean[expo]
        self.terms = clean

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {tuple([0] * n): c})

    @classmethod
    def variable(cls, n: int, j: int) -> "Polynomial":
        """The centered coordinate x^j, 1-based."""
        if not (1 <= j <= n):
            raise ValueError(f"variable index {j} outside 1..{n}")
        e = [0] * n
        e[j - 1] = 1
        return cls(n, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        res = Polynomial.__new__(Polynomial)
        res.n, res.terms = self.n, out
        return res

    def __neg__(self) -> "Polynomial":
        res = Polynomial.__new__(Polynomial)
        res.n = self.n
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out: dict[Exponents, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(e, Fraction(0)) + c1 * c2
                    if s == 0:
                        out.pop(e, None)
                    else:
                        out[e] = s
            res = Polynomial.__new__(Polynomial)
            res.n, res.terms = self.n, out
            return res
        c = as_fraction(other)
        if c == 0:
            return Polynomial(self.n)
        res = Polynomial.__new__(Polynomial)
        res.n = self.n
        res.terms = {e: c * v for e, v in self.terms.items()}
        return res

    __rmul__ = __mul__

    def partial(self, j: int) -> "Polynomial":
        """Partial derivative with respect to variable j (1-based)."""
        if not (1 <= j <= self.n):
            raise ValueError(f"variable index {j} outside 1..{self.n}")
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            p = e[j - 1]
            if p == 0:
                continue
            de = list(e)
            de[j - 1] = p - 1
            out[tuple(de)] = c * p
        res = Polynomial.__new__(Polynomial)
        res.n, res.terms = self.n, out
        return res

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError(f"mixing polynomials in {self.n} and {other.n} variables")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = "*".join(f"x{j + 1}^{p}" for j, p in enumerate(e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class PolyForm:
    """Differential k-form with Polynomial components.

    ``comps`` maps increasing multi-indices to Polynomial coefficients;
    missing indices are zero.  Vector proxy for n = 2, k = 1: the form
    p dx^1 + q dx^2 stands for the vector field (p, q).
    """

    __slots__ = ("n", "k", "comps")

    def __init__(self, n: int, k: int, comps: Mapping[MultiIndex, Polynomial] | None = None):
        if not (0 <= k <= n):
            raise ValueError(f"form degree {k} outside 0..{n}")
        self.n = n
        self.k = k
        clean: dict[MultiIndex, Polynomial] = {}
        if comps:
            for alpha, poly in comps.items():
                alpha = tuple(alpha)
                validate_multi_index(alpha, n)
                if len(alpha) != k:
                    raise ValueError(f"multi-index {alpha} has wrong length for a {k}-form")
                if not isinstance(poly, Polynomial):
                    poly = Polynomial.constant(n, poly)
                if poly.n != n:
                    raise ValueError("component polynomial has wrong ambient dimension")
                if not poly.is_zero():
                    prev = clean.get(alpha)
                    acc = poly if prev is None else prev + poly
                    if acc.is_zero():
                        clean.pop(alpha, None)
                    else:
                        clean[alpha] = acc
        self.comps = clean

    @classmethod
    def basis(cls, n: int, alpha: MultiIndex, coeff=1) -> "PolyForm":
        """coeff * dx^alpha, with coeff a scalar or Polynomial."""
        alpha = tuple(alpha)
        if not isinstance(coeff, Polynomial):
            coeff = Polynomial.constant(n, coeff)
        return cls(n, len(alpha), {alpha: coeff})

    @classmethod
    def zero(cls, n: int, k: int) -> "PolyForm":
        return cls(n, k)

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if self.n != other.n or self.k != other.k:
            raise ValueError(
                f"mixing a {self.k}-form in R^{self.n} with a {other.k}-form in R^{other.n}"
            )
        out = dict(self.comps)
        for a, p in other.comps.items():
            q = out.get(a)
            s = p if q is None else q + p
            if s.is_zero():
                out.pop(a, None)
            else:
                out[a] = s
        res = PolyForm.__new__(PolyForm)
        res.n, res.k, res.comps = self.n, self.k, out
        return res

    def __neg__(self) -> "PolyForm":
        res = PolyForm.__new__(PolyForm)
        res.n, res.k = self.n, self.k
        res.comps = {a: -p for a, p in self.comps.items()}
        return res

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def __mul__(self, other) -> "PolyForm":
        """Scale by a scalar or multiply every component by a Polynomial."""
        out: dict[MultiIndex, Polynomial] = {}
        for a, p in self.comps.items():
            q = p * other
            if not q.is_zero():
                out[a] = q
        res = PolyForm.__new__(PolyForm)
        res.n, res.k, res.comps = self.n, self.k, out
        return res

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyForm)
            and self.n == other.n
            and self.k == other.k
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.n, self.k, frozenset(self.comps.items())))

    def __repr__(self) -> str:
        if not self.comps:
            return f"0 ({self.k}-form, n={self.n})"
        bits = []
        for a in sorted(self.comps):
            label = "dx^" + "".join(map(str, a)) if a else "1"
            bits.append(f"({self.comps[a]!r}) {label}")
        return " + ".join(bits)


def hodge_star(w: PolyForm) -> PolyForm:
    """Hodge star for the Euclidean metric: k-forms to (n-k)-forms.

    star(dx^alpha) = star_sign(alpha) * dx^complement(alpha); applying it
    twice gives (-1)^{k(n-k)} times the identity.
    """
    out: dict[MultiIndex, Polynomial] = {}
    for alpha, p in w.comps.items():
        beta = complement(alpha, w.n)
        s = star_sign(alpha)
        out[beta] = p if s == 1 else -p
    return PolyForm(w.n, w.n - w.k, out)


def exterior_derivative(w: PolyForm) -> PolyForm:
    """d: k-forms to (k+1)-forms.  Raises on top forms (k = n)."""
    if w.k >= w.n:
        raise ValueError(f"exterior derivative of a top ({w.k}-)form in R^{w.n}")
    out: dict[MultiIndex, Polynomial] = {}
    for alpha, p in w.comps.items():
        for j in range(1, w.n + 1):
            if j in alpha:
                continue
            dp = p.partial(j)
            if dp.is_zero():
                continue
            sign, merged = wedge_sign((j,), alpha)
            term = dp if sign == 1 else -dp
            prev = out.get(merged)
            acc = term if prev is None else prev + term
            if acc.is_zero():
                out.pop(merged, None)
            else:
                out[merged] = acc
    return PolyForm(w.n, w.k + 1, out)


def codifferential(w: PolyForm) -> PolyForm:
    """delta_k = (-1)^{k n} star d star: k-forms to (k-1)-forms.

    This is the composition convention the exact identity suite checks
    (for n = 2 it sends p dx^1 + q dx^2 to +(d1 p + d2 q)).  It equals
    the formal L2-adjoint of d only for odd n; see codifferential_green.
    Raises on 0-forms.
    """
    if w.k == 0:
        raise ValueError("codifferential of a 0-form")
    sign = -1 if (w.k * w.n) % 2 else 1
    res = hodge_star(exterior_derivative(hodge_star(w)))
    return res if sign == 1 else -res


def codifferential_green(w: PolyForm) -> PolyForm:
    """The formal L2-adjoint of d: (-1)^{n+1} times ``codifferential``.

    Satisfies <d u, v> = <u, delta v> up to boundary terms for all n.
    For n = 2 this sends p dx^1 + q dx^2 to -(d1 p + d2 q).
    """
    res = codifferential(w)
    return res if w.n % 2 else -res


def koszul(w: PolyForm) -> PolyForm:
    """Koszul contraction with the centered position vector.

    kappa(p dx^{a_1..a_k}) = sum_j (-1)^{j+1} (p * x^{a_j}) dx^{..without a_j..},
    where x^j are the centered coordinates the polynomials are written in.
    Maps k-forms to (k-1)-forms; raises on 0-forms.  Satisfies
    d(koszul(dx^alpha)) = k dx^alpha for constant k-form coefficients.
    """
    if w.k == 0:
        raise ValueError("Koszul contraction of a 0-form")
    out: dict[MultiIndex, Polynomial] = {}
    for alpha, p in w.comps.items():
        for j, a in enumerate(alpha):
            term = p * Polynomial.variable(w.n, a)
            if j % 2:
                term = -term
            reduced = alpha[:j] + alpha[j + 1 :]
            prev = out.get(reduced)
            acc = term if prev is None else prev + term
            if acc.is_zero():
                out.pop(reduced, None)
            else:
                out[reduced] = acc
    return PolyForm(w.n, w.k - 1, out)


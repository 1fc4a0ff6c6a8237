"""Independent exact references that only the tests use.

The package computes each exact quantity one way, on integer rows over
one denominator; these are the slower, direct forms the tests compare
it with:

* ``l2_gram`` (and ``h1_seminorm_sq``), the L2 products of two families
  of forms or of direct-sum tuples, as ``Fraction`` entries;
* ``integrate_poly`` and ``monomial_integral``, exact integrals of
  centered polynomials;
* ``hat_coefficients`` and ``barycentric_coordinates``, the hat
  functions of a simplex;
* ``wedge``, the exterior product, through which the Leibniz rule checks
  ``exterior_derivative``;
* ``shape_space``, the scaled shape basis S R of a local element built
  form by form, which ``DofMatrix.combine`` avoids building;
* ``simplex``, the exact ``Simplex`` of one cell of a triangulation;
* ``planar_element``, the planar element on a triangle built form by
  form with the forms calculus: shape forms, graph, DOF tests and the
  Green rows of the hat tests, the reference for the closed forms;
* ``as_fractions`` and ``exact``, integer rows (a ``DofMatrix``'s among
  them) as one Fraction per entry;
* ``gauss_jordan`` and ``solve_rational``, exact elimination on rows of
  Fractions, the reference for ``element.solve_dofs``;
* ``diameter`` and ``shape_ratio``, a simplex's float h and h /
  inradius evaluated with numpy, the reference for the verification
  suite's float shape test;
* ``basis_functions``, the kernel basis as exact ``BasisFunction``s
  with Fraction entries, built from ``GlobalBasis.exact_duals``.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from hodgefem.element import DofMatrix, ShapeSpace, build_h2d_form
from hodgefem.forms import (
    PolyForm,
    Polynomial,
    codifferential_green,
    exterior_derivative,
    hodge_star,
    koszul,
    wedge_sign,
)
from hodgefem.globalspace import CATEGORIES, GlobalBasis
from hodgefem.mesh import Triangulation
from hodgefem.simplices import Pairing, Simplex, _bareiss, gradient


def as_fractions(rows, den: int) -> list[list[Fraction]]:
    """Integer rows over one denominator, one Fraction per entry."""
    return [[Fraction(v, den) for v in row] for row in rows]


def exact(matrix: DofMatrix) -> list[list[Fraction]]:
    """The DOF matrix of a local element, one Fraction per entry."""
    return as_fractions(matrix.rows, matrix.den)


def gauss_jordan(matrix, rhs) -> tuple[Fraction, list[list[Fraction]] | None]:
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


def solve_rational(matrix, rhs) -> list[list[Fraction]]:
    """Solve A X = B exactly: ``matrix`` square (rows), ``rhs`` the rows of B
    (any number of columns).  Returns X as rows; raises on singular input."""
    _, sol = gauss_jordan(matrix, rhs)
    if sol is None:
        raise ValueError("singular rational system")
    return sol


def diameter(T: Simplex) -> float:
    """The float diameter (largest edge length) of T."""
    d2 = max(sum((x - y) ** 2 for x, y in zip(a, b)) for a, b in combinations(T.vertices, 2))
    return math.sqrt(d2)  # float(Fraction) rounds the exact square once


def shape_ratio(T: Simplex) -> float:
    """h / inradius of T, the inradius n |T| / (total facet measure) in numpy floats."""
    verts = [np.array([float(x) for x in v]) for v in T.vertices]
    total = 0.0
    for skip in range(T.n + 1):
        facet = [verts[i] for i in range(T.n + 1) if i != skip]
        if T.n == 1:
            total += 1.0
            continue
        edges = np.array([facet[i + 1] - facet[0] for i in range(T.n - 1)])
        gram = edges @ edges.T
        total += math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(T.n - 1)
    return diameter(T) / (T.n * float(T.volume) / total)


@dataclass
class BasisFunction:
    """One member of the explicit kernel basis (support of one or two cells)."""

    category: str
    anchor: int
    cells: tuple[int, ...]
    entries: list[tuple[int, Fraction]] = field(repr=False)


def basis_functions(basis: GlobalBasis):
    """The exact BasisFunctions in column order, entries (index, Fraction) in
    Phi's order: a generator, one function at a time, over the table of
    ``exact_duals``."""
    table = [
        [[(i, Fraction(n, d)) for i, n, d in column] for column in columns]
        for columns in basis.exact_duals()
    ]
    tix = basis.prod.template_index.tolist()

    def entries(cell: int, col: int, sign: int) -> list[tuple[int, Fraction]]:
        return [(6 * cell + i, sign * v) for i, v in table[tix[cell]][col]]

    for cat, a, (c0, c1), (k0, k1) in zip(
        basis.category.tolist(), basis.anchor.tolist(), basis.cells.tolist(), basis.columns.tolist()
    ):
        if c1 < 0:
            yield BasisFunction(CATEGORIES[cat], a, (c0,), entries(c0, k0, 1))
        else:
            both = entries(c0, k0, 1) + entries(c1, k1, -1)
            yield BasisFunction(CATEGORIES[cat], a, (c0, c1), both)


def l2_gram(us, vs, simplex: Simplex) -> list[list[Fraction]]:
    """Exact matrix of the L2 inner products <u_i, v_j> of two families.

    A member is a k-form, or a tuple of forms in a direct sum, where the
    product is the sum of the slotwise L2 products (``Pairing``).
    """
    pairing = Pairing(us, vs)
    members = [m if isinstance(m, tuple) else (m,) for m in [*us, *vs]]
    if members and members[0][0].n != simplex.n:
        raise ValueError("forms and simplex have different ambient dimension")
    return as_fractions(*pairing.contract(*simplex.integer_moments(pairing.exponents)))


def h1_seminorm_sq(w: PolyForm, simplex: Simplex) -> Fraction:
    """Exact squared H1 seminorm: the L2 norm of ``gradient(w)`` as one
    ``l2_gram`` on the direct sum of its partials."""
    family = [gradient(w)]
    return l2_gram(family, family, simplex)[0][0]


def monomial_integral(simplex: Simplex, exponents) -> Fraction:
    """Exact integral over the simplex of prod_j (x^j - barycenter^j)^{e_j}."""
    e = tuple(exponents)
    num, den = simplex.integer_moments([e])
    return Fraction(num[e], den)


def integrate_poly(p: Polynomial, simplex: Simplex) -> Fraction:
    """Exact integral of a centered-coordinate polynomial over the simplex."""
    if p.n != simplex.n:
        raise ValueError(f"polynomial in {p.n} variables on a {simplex.n}-simplex")
    return sum((c * monomial_integral(simplex, e) for e, c in p.terms.items()), Fraction(0))


def hat_coefficients(simplex: Simplex) -> tuple[list[list[int]], int]:
    """The n+1 barycentric coordinates (hat functions) as integer coefficient rows.

    Returns (rows, den) with lambda_i(x) = (rows[i][0] + rows[i][1:] . x)
    / den in centered coordinates.  With the centered vertices written
    as integers U over d, [U | d] [G^T; g0] = d I: one ``_bareiss`` on
    integer rows, with den its positive determinant.
    """
    n = simplex.n
    units, d = simplex._units()
    aug = [[*u, d, *(d * (r == c) for c in range(n + 1))] for r, u in enumerate(units)]
    _, den = _bareiss(aug, n + 1)  # a nondegenerate simplex: never singular
    sol = [row[n + 1 :] if den > 0 else [-v for v in row[n + 1 :]] for row in aug]
    # column i of sol: den G_i, then den g0_i
    return [[sol[n][i], *(sol[j][i] for j in range(n))] for i in range(n + 1)], abs(den)


def barycentric_coordinates(simplex: Simplex) -> list[Polynomial]:
    """The n+1 barycentric coordinates (hat functions), exact and linear."""
    n = simplex.n
    rows, den = hat_coefficients(simplex)
    units = [(0,) * n] + [tuple(int(j == l) for l in range(n)) for j in range(n)]
    return [Polynomial(n, {u: Fraction(c, den) for u, c in zip(units, row)}) for row in rows]


def wedge(u: PolyForm, v: PolyForm) -> PolyForm:
    """Exterior product of a j-form and a k-form (degrees must fit in n)."""
    if u.n != v.n:
        raise ValueError("wedge factors live in different ambient dimensions")
    deg = u.k + v.k
    if deg > u.n:
        raise ValueError(f"wedge degree {deg} exceeds ambient dimension {u.n}")
    out = PolyForm.zero(u.n, deg)
    for a, p in u.comps.items():
        for b, q in v.comps.items():
            sign, merged = wedge_sign(a, b)
            if sign:
                out = out + PolyForm(u.n, deg, {merged: sign * (p * q)})
    return out


def _scaled_forms(rows, den: int, forms: list[PolyForm]) -> list[PolyForm]:
    """The forms sum_a (rows[i][a] / den) forms[a], one per row."""
    zero = PolyForm.zero(forms[0].n, forms[0].k)
    return [sum((Fraction(v, den) * w for v, w in zip(row, forms) if v), zero) for row in rows]


def shape_space(matrix: DofMatrix) -> ShapeSpace:
    """The shape basis S R of one local element, with its graph S dR, S delta R."""
    rows, den, ref = matrix.scaling.shape, matrix.scaling.shape_den, matrix.reference.space
    return ShapeSpace(
        ref.n,
        ref.k,
        _scaled_forms(rows, den, ref.basis),
        ref.blocks,
        _scaled_forms(rows, den, ref.d_basis),
        _scaled_forms(rows, den, ref.delta_basis),
    )


def simplex(tri: Triangulation, cell: int) -> Simplex:
    """The exact simplex of ``cell``, its vertices in the cell's order."""
    return Simplex([tri.vertices[v] for v in tri.cells[cell]])


def green_rows(etas, taus) -> list[tuple[PolyForm, PolyForm, PolyForm]]:
    """The Green functionals of planar test forms, (eta, 0, -delta eta) then
    (0, tau, -d tau), for pairing with graphs (d mu, delta mu, mu)."""
    up, down = PolyForm.zero(2, 2), PolyForm.zero(2, 0)
    rows = [(eta, down, -codifferential_green(eta)) for eta in etas]
    return rows + [(up, tau, -exterior_derivative(tau)) for tau in taus]


def planar_element(T: Simplex):
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
    hat_rows = green_rows(
        [PolyForm(2, 2, {(1, 2): lam}) for lam in hats], [PolyForm(2, 0, {(): lam}) for lam in hats]
    )
    return shape, graph, etas, taus, hat_rows

"""The local nonconforming element: shape space, DOFs, interpolation.

Per simplex T the k-form shape space is the direct sum of four blocks

    P0        constant k-forms                                C(n,k)
    KAPPA     koszul(constant (k+1)-forms)                    C(n,k+1)
    STARKAPPA star koszul star (constant (k-1)-forms)         C(n,k-1)
    H2D       quadratic forms with d = 0 and constant delta   C(n,k)

with polynomials in barycenter-centered coordinates throughout.  The H2D
block member attached to dx^alpha is

    sum_j [ (x^{b_j})^2 - c^{b_j} ] dx^alpha,   b = complement(alpha),

where c^{(j)} is the simplex's second moment, so every component has
zero mean.  build_h2d_form builds one such member on a simplex directly,
for the identity suite and the tests; the shape space scales the
reference forms instead (below).  The companion family
build_h2delta_form (quadratics in the alpha-variables, delta = 0, d
constant) is provided for identity tests but is not part of the shape
space.

Degrees of freedom pair the form with test forms through the two Green
functionals (delta below is the Green/adjoint sign, see forms):

    F_eta(mu) = <d mu, eta> - <mu, delta eta>,   eta in P0^{k+1} + star koszul star P0^k
    F_tau(mu) = <delta mu, tau> - <mu, d tau>,   tau in P0^{k-1} + koszul P0^k

``_green_rows`` writes a family of eta and tau test forms as members
(eta, 0, -delta eta) and (0, tau, -d tau) of the direct sum of (k+1)-,
(k-1)- and k-forms, so that pairing them with the graph (d mu, delta mu,
mu) in one exact ``simplices.Pairing`` gives the functionals.

The element is built once per (n, k), by ``reference_element``.  On
every simplex the shape basis is S R: R the fixed forms of the four
blocks in centered coordinates, without scalings, and S the simplex's
``Scaling`` (1/h, 1/h^2 and the second moments, exact rationals).  The
DOF test forms are E T the same way, with E diagonal.  Since d and
delta are linear, the DOF matrix on a simplex is E D S^T with D the
pairing of the fixed Green rows T with the fixed graph of R:
``ReferenceElement.pair`` computes it from the cached blocks of the two
families with one ``integer_moments`` call and one integer contraction,
and applies the scalings in Python ints.  No scaled test form is ever
built: the exact DOF values of a PolyForm mu pair the reference Green
rows T with the graph of mu, row i times E_ii, by ``Pairing.against`` on
the reference element's DOF pairing, so the coefficient blocks of T are
built once.

A DofMatrix is the local element of one simplex, and ``local_element``
its one constructor, one ``pair``: its scaling and the DOF matrix as
``pair`` computes it, Python-int rows over one denominator, built once
and passed to dof_values and solve_dofs; its float view divides each
entry once.  No scaled shape form is built either:
``DofMatrix.combine`` makes one member of the space S R as R combined
with S^T c, the reference forms' terms summed once by
``ShapeSpace.combine``.  Row order: eta block (constants then
koszul-type), then tau block (constants then koszul-type); columns
follow the shape basis.
The local element is exact end to end, and its matrices are never
Fractions: a Fraction is built only where a caller reads one.
``dof_values`` takes a PolyForm and returns Fractions.  ``solve_dofs``
runs ``simplices._bareiss`` on the integer rows, augmented with the DOF
values over their common denominator, for both methods: the direct
solve, and the four-step solve, block forward substitution in the same
rows.  It starts from given DOF values, so one evaluation serves both
methods, and it refuses float values, so no float is finished in
Fractions.  The float DOFs of a pointwise field (a
``FormCallback``) are the global pipeline's:
``globalspace.global_interpolate`` applies the functionals below to
every cell at once.

``ReferenceElement.tables`` evaluates the fixed forms of the planar
1-form element at the quadrature nodes of a whole stack of elements at
once and scales them by the stacked float S and E.  It returns two
tables in the column order of ``node_values`` (value x, value y, d,
Green delta): ``shape``, the graph of S R at the nodes, and ``rows``, the
weighted Green functionals at the nodes, so the float DOFs of a field are
its node values contracted with ``rows``.  This is the one float
quadrature of the functionals: the cellwise global interpolation reads
``rows``, and the unisolvence suite's projection check multiplies
``shape`` by ``rows``; the load vector and the error norms read
``shape``.  The float view of the global product space uses no
quadrature: its DOF matrices, Whitney rows, duals and cell Grams are the
exact values rounded once, from closed forms
(``globalspace._closed_forms``), which also give the exact duals of the
``basis`` dump.  The tests' independent reference for them pairs the
element's forms built one by one.

Scaling keeps the DofMatrix condition number independent of the simplex
diameter: koszul-type shape and test forms carry 1/h, the H2D block
1/h^2, with h a rational Chebyshev-diameter surrogate so the exact
rational path is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import mul
from typing import Callable

import numpy as np

from .forms import (
    PolyForm,
    Polynomial,
    codifferential_green,
    complement,
    exterior_derivative,
    hodge_star,
    koszul,
    multi_indices,
)
from .simplices import Pairing, Simplex, _bareiss, quadrature_rule

__all__ = [
    "P0",
    "KAPPA",
    "STARKAPPA",
    "H2D",
    "DIRECT",
    "FOURSTEP",
    "ShapeSpace",
    "DofBasis",
    "DofMatrix",
    "ReferenceElement",
    "Scaling",
    "reference_element",
    "FormCallback",
    "build_h2d_form",
    "build_h2delta_form",
    "local_element",
    "dof_values",
    "node_values",
    "solve_dofs",
]

P0 = "P0"
KAPPA = "KAPPA"
STARKAPPA = "STARKAPPA"
H2D = "H2D"

DIRECT = "direct"
FOURSTEP = "fourstep"


def build_h2d_form(alpha: tuple[int, ...], simplex: Simplex) -> PolyForm:
    """Quadratic shape form on dx^alpha: d of it is koszul-type, delta is 0."""
    alpha = tuple(alpha)
    beta = complement(alpha, simplex.n)
    return _centered_squares(alpha, beta, simplex, "H2D form needs a nonempty complement (k < n)")


def build_h2delta_form(alpha: tuple[int, ...], simplex: Simplex) -> PolyForm:
    """Companion quadratic with delta = 0 and constant d; not a shape form."""
    alpha = tuple(alpha)
    return _centered_squares(alpha, alpha, simplex, "the delta-companion quadratic needs k >= 1")


def _centered_squares(alpha, indices, simplex: Simplex, empty: str) -> PolyForm:
    """sum_b ((x^b)^2 - c^b) dx^alpha over b in ``indices``, c^b the second
    moments of ``simplex``; ValueError ``empty`` when ``indices`` is empty."""
    if not indices:
        raise ValueError(empty)
    n = simplex.n
    poly = Polynomial(n)
    for b in indices:
        xb = Polynomial.variable(n, b)
        poly = poly + xb * xb - Polynomial.constant(n, simplex.second_moments[b - 1])
    return PolyForm(n, len(alpha), {alpha: poly})


def _star_koszul_star(w: PolyForm) -> PolyForm:
    return hodge_star(koszul(hodge_star(w)))


class ShapeSpace:
    """Ordered basis of the local shape space with named blocks.

    ``basis`` lists PolyForms; ``blocks`` maps block name to a range of
    basis positions.  Within each block, forms follow the lexicographic
    order of their generating multi-indices.  ``d_basis``/``delta_basis``
    hold the exterior derivative / Green codifferential of each basis
    form.
    """

    __slots__ = ("n", "k", "basis", "blocks", "d_basis", "delta_basis")

    def __init__(self, n, k, basis, blocks, d_basis, delta_basis):
        self.n = n
        self.k = k
        self.basis = basis
        self.blocks = blocks
        self.d_basis = d_basis
        self.delta_basis = delta_basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combine(self, coeffs) -> PolyForm:
        """Exact linear combination of the basis with rational coefficients.

        The basis forms' terms are summed into one dict per component,
        with no intermediate form.  Floats are refused: a float result is
        not finished in Fractions.
        """
        if len(coeffs) != len(self.basis):
            raise ValueError(f"expected {len(self.basis)} coefficients, got {len(coeffs)}")
        if any(isinstance(c, float) for c in coeffs):
            raise TypeError("combine takes exact (Fraction or int) coefficients, not floats")
        comps: dict = {}
        for c, mu in zip(coeffs, self.basis):
            if c:
                for alpha, p in mu.comps.items():
                    terms = comps.setdefault(alpha, {})
                    for e, v in p.terms.items():
                        terms[e] = terms.get(e, 0) + c * v
        return PolyForm(self.n, self.k, {a: Polynomial(self.n, t) for a, t in comps.items()})


class DofBasis:
    """Test forms for the DOF functionals, with named sub-blocks.

    ``eta_basis`` holds (k+1)-forms (constants, then star-koszul-star of
    constant k-forms); ``tau_basis`` holds (k-1)-forms (constants, then
    koszul of constant k-forms).  The two sub-blocks of each family are
    mutually L2-orthogonal on the simplex because every koszul-type
    component has zero mean.  ``eta_green``/``tau_d`` hold the Green
    codifferential / exterior derivative of each test form.
    """

    __slots__ = (
        "n", "k", "eta_basis", "tau_basis", "eta_blocks", "tau_blocks", "eta_green", "tau_d"
    )

    def __init__(self, n, k, eta_basis, tau_basis, eta_blocks, tau_blocks, eta_green, tau_d):
        self.n = n
        self.k = k
        self.eta_basis = eta_basis
        self.tau_basis = tau_basis
        self.eta_blocks = eta_blocks
        self.tau_blocks = tau_blocks
        self.eta_green = eta_green
        self.tau_d = tau_d


def _green_rows(tests: DofBasis) -> list[tuple[PolyForm, PolyForm, PolyForm]]:
    """The Green functionals of ``tests`` as members of the direct sum of
    (k+1)-, (k-1)- and k-forms: (eta, 0, -delta eta), then (0, tau, -d tau).

    Paired with the graph (d mu, delta mu, mu) they give
    F_eta(mu) = <d mu, eta> - <mu, delta eta> and
    F_tau(mu) = <delta mu, tau> - <mu, d tau>.
    """
    n, k = tests.n, tests.k
    up, down = PolyForm.zero(n, k + 1), PolyForm.zero(n, k - 1)
    rows = [(eta, down, -g) for eta, g in zip(tests.eta_basis, tests.eta_green)]
    rows += [(up, tau, -d) for tau, d in zip(tests.tau_basis, tests.tau_d)]
    return rows


class Scaling:
    """The exact scalings of the reference families on one simplex, in Python ints.

    The shape basis is S R and the DOF test forms E T, with R and T the
    reference element's families.  ``shape`` holds the rows of S over
    ``shape_den``: 1 on P0, 1/h on KAPPA and STARKAPPA, 1/h^2 on H2D,
    and -c^alpha/h^2 from each H2D member into the P0 member of the same
    alpha.  ``tests`` holds the diagonal of E over ``tests_den``, one int
    per test: 1 on the constant tests and 1/h on the koszul-type ones.
    """

    __slots__ = ("shape", "shape_den", "tests", "tests_den")

    def __init__(self, shape, shape_den, tests, tests_den):
        self.shape = shape
        self.shape_den = shape_den
        self.tests = tests
        self.tests_den = tests_den

    def floats(self) -> tuple[np.ndarray, np.ndarray]:
        """S and the diagonal of E as floats, each entry rounded once
        (int / int rounds the exact quotient, as float(Fraction))."""
        S = np.array([[v / self.shape_den for v in row] for row in self.shape])
        return S, np.array([v / self.tests_den for v in self.tests])


class ReferenceElement:
    """The element's fixed families for one (n, k), built once (``reference_element``).

    On every simplex the shape basis is S R with R the unscaled forms

        dx^alpha;  koszul(dx^beta);  star koszul star(dx^gamma);  sum_b (x^b)^2 dx^alpha

    (b over complement(alpha)) in centered coordinates, and S the
    simplex's ``Scaling``.  The DOF test forms are E times the unscaled
    ``tests``.  d and delta are linear, so the graph of S R is S times
    the graph of R, and the DOF matrix on a simplex is E D S^T with D the
    pairing of the fixed Green rows of ``tests`` with the fixed graph:
    ``pair`` computes D with one ``integer_moments`` call and one
    ``Pairing.contract`` (blocks built here once) and applies E and S in
    Python ints.  ``space`` and ``tests`` are the unscaled families, with
    ``space.d_basis``/``space.delta_basis`` its graph.
    """

    __slots__ = ("n", "k", "space", "tests", "_squares", "_pairing")

    def __init__(self, n: int, k: int):
        if not (1 <= k <= n - 1):
            raise ValueError(f"form degree k={k} outside 1..{n - 1}")
        self.n, self.k = n, k
        basis: list[PolyForm] = []
        blocks: dict[str, range] = {}

        def block(name, forms):
            blocks[name] = range(len(basis), len(basis) + len(forms))
            basis.extend(forms)

        x = [Polynomial.variable(n, j) for j in range(1, n + 1)]
        square = {
            alpha: sum((x[b - 1] * x[b - 1] for b in complement(alpha, n)), Polynomial(n))
            for alpha in multi_indices(k, n)
        }
        block(P0, [PolyForm.basis(n, alpha) for alpha in multi_indices(k, n)])
        block(KAPPA, [koszul(PolyForm.basis(n, beta)) for beta in multi_indices(k + 1, n)])
        block(STARKAPPA, [_star_koszul_star(PolyForm.basis(n, g)) for g in multi_indices(k - 1, n)])
        block(H2D, [PolyForm(n, k, {alpha: p}) for alpha, p in square.items()])
        self.space = ShapeSpace(
            n,
            k,
            basis,
            blocks,
            [exterior_derivative(mu) for mu in basis],
            [codifferential_green(mu) for mu in basis],
        )
        eta = [PolyForm.basis(n, beta) for beta in multi_indices(k + 1, n)]
        eta += [_star_koszul_star(PolyForm.basis(n, alpha)) for alpha in multi_indices(k, n)]
        tau = [PolyForm.basis(n, gamma) for gamma in multi_indices(k - 1, n)]
        tau += [koszul(PolyForm.basis(n, alpha)) for alpha in multi_indices(k, n)]
        n_eta0, n_tau0 = len(multi_indices(k + 1, n)), len(multi_indices(k - 1, n))
        self.tests = DofBasis(
            n,
            k,
            eta,
            tau,
            {P0: range(n_eta0), STARKAPPA: range(n_eta0, len(eta))},
            {P0: range(n_tau0), KAPPA: range(n_tau0, len(tau))},
            [codifferential_green(e) for e in eta],
            [exterior_derivative(t) for t in tau],
        )
        graph = list(zip(self.space.d_basis, self.space.delta_basis, basis))
        self._squares = [tuple(2 * (i == j) for i in range(n)) for j in range(n)]
        self._pairing = Pairing(_green_rows(self.tests), graph)

    def scaling(self, simplex: Simplex, second_moments) -> Scaling:
        """S and E on ``simplex``, from its ``h_scale`` and its ``second_moments``."""
        c, h = second_moments, simplex.h_scale
        hn, hd = h.numerator, h.denominator
        blocks = self.space.blocks
        # c^alpha = sum of c^b over complement(alpha), over one denominator
        calpha = [
            sum((c[b - 1] for b in complement(a, self.n)), Fraction(0))
            for a in multi_indices(self.k, self.n)
        ]
        cd = math.lcm(*(x.denominator for x in calpha))
        diag = {P0: hn * hn * cd, KAPPA: hn * hd * cd, STARKAPPA: hn * hd * cd, H2D: hd * hd * cd}
        dim = self.space.dim
        shape = [[0] * dim for _ in range(dim)]
        for name, r in blocks.items():
            for i in r:
                shape[i][i] = diag[name]
        for p0, h2d, x in zip(blocks[P0], blocks[H2D], calpha):
            shape[h2d][p0] = -x.numerator * (cd // x.denominator) * hd * hd
        tests = [
            hn if name == P0 else hd
            for family in (self.tests.eta_blocks, self.tests.tau_blocks)
            for name, r in family.items()
            for _ in r
        ]
        return Scaling(shape, hn * hn * cd, tests, hn)

    def pair(self, simplex: Simplex) -> tuple[Scaling, list[list[int]], int]:
        """The exact DOF matrix E D S^T on ``simplex``: the Green functionals
        of the scaled DOF tests paired with the graph of S R.

        Returns the simplex's ``Scaling``, the matrix's integer rows and
        their denominator, with no factor common to all of them.  One
        ``integer_moments`` call serves the pairing and the second moments
        of S.
        """
        pairing = self._pairing
        moments, mden = simplex.integer_moments(pairing.exponents + self._squares)
        second = [Fraction(moments[e], mden) / simplex.volume for e in self._squares]
        scaling = self.scaling(simplex, second)
        rows, den = pairing.contract(moments, mden)
        E, S = scaling.tests, scaling.shape  # E D S^T: row i of D S^T times E_ii
        matrix = [[e * sum(map(mul, row, s)) for s in S] for e, row in zip(E, rows)]
        den *= scaling.tests_den * scaling.shape_den
        g = math.gcd(den, *(v for row in matrix for v in row))  # their common factor
        return scaling, [[v // g for v in row] for row in matrix], den // g

    def tables(self, vertices, volumes, shape_scale, test_scale, order: int) -> dict:
        """Quadrature-node tables of a stack of planar 1-form elements.

        ``vertices`` (T, 3, 2) are the centered vertices, ``volumes`` (T,)
        the areas, and ``shape_scale`` (T, 6, 6) and ``test_scale`` (T, 6)
        the float S and diagonal E of each element (``Scaling.floats``).
        The nodes are the ``quadrature_rule`` of the given order on each
        simplex.  Keys, each with the leading axis T: ``centered`` (T,nq,2)
        nodes and ``weights`` (T,nq), and two tables whose last or
        second-to-last axis holds value x, value y, d and Green delta, as
        ``node_values``:

        * ``shape`` (T,6,nq,4), the graph of the shape basis S R.  The
          reference graph is evaluated at every element's nodes at once
          and scaled, S summed term by term with no fused multiply-add
          (terms zero on every element left out), so each value rounds as
          the scaled form's own coefficients would.
        * ``rows`` (T,nq,4,6), the Green functionals: the members
          (eta, 0, -delta eta) and (0, tau, -d tau) of the DOF tests at
          the nodes, scaled by E and then weighted.  A field with node
          values N has DOF j = sum over (q, c) of N[q, c] rows[q, c, j].

        ``rows`` are written from the test forms here, apart from
        ``_green_rows``, so the projection check compares two writings of
        the functionals.
        """
        if (self.n, self.k) != (2, 1):
            raise ValueError(
                f"node tables need the planar 1-form element, got n={self.n}, k={self.k}"
            )
        bary, w = quadrature_rule(2, order)
        nodes = np.array([[float(b) for b in node] for node in bary]) @ vertices
        weights = np.array([float(x) for x in w]) * 2.0 * volumes[:, None]
        space, tests = self.space, self.tests
        zero2, zero0 = PolyForm.zero(2, 2), PolyForm.zero(2, 0)

        def at_nodes(members, out):  # out[:, i] = member i, (up, down, value), at the nodes
            for i, (up, down, value) in enumerate(members):
                for w, cols in ((value, slice(0, 2)), (up, slice(2, 3)), (down, slice(3, 4))):
                    if not w.is_zero():  # out starts at zero
                        form_values(w, nodes, out[:, i, :, cols])

        stack, nq = nodes.shape[:2]
        graph = np.zeros((stack, space.dim, nq, 4))
        at_nodes(zip(space.d_basis, space.delta_basis, space.basis), graph)
        # sum_a S[:, i, a] graph[:, a] in order of a, less the terms zero on every element
        shape = np.zeros_like(graph)
        for i, a in zip(*np.nonzero(np.any(shape_scale, axis=0))):
            shape[:, i] += shape_scale[:, i, a, None, None] * graph[:, a]
        green = [(eta, zero0, -g) for eta, g in zip(tests.eta_basis, tests.eta_green)]
        green += [(zero2, tau, -d) for tau, d in zip(tests.tau_basis, tests.tau_d)]
        rows = np.zeros((stack, nq, 4, len(green)))
        at_nodes(green, np.moveaxis(rows, -1, 1))
        rows *= test_scale[:, None, None, :]  # scaled by E, then weighted
        rows *= weights[:, :, None, None]
        return {"centered": nodes, "weights": weights, "shape": shape, "rows": rows}


@lru_cache(maxsize=None)
def reference_element(n: int, k: int) -> ReferenceElement:
    """The ``ReferenceElement`` of (n, k), built once per process."""
    return ReferenceElement(n, k)


class DofMatrix:
    """The local element on one simplex, built once and reused.

    Owns the simplex, its ``Scaling`` and the functional-by-shape matrix
    (rows eta then tau, columns shape basis) as ``ReferenceElement.pair``
    computes it: Python-int ``rows`` over one denominator ``den``.  No
    Fraction is built for an entry.  ``as_float`` divides each entry once,
    on first read, and is read-only.  A DofMatrix builds no PolyForm;
    ``combine`` makes one member of its shape space S R without building
    the space.
    """

    __slots__ = ("reference", "simplex", "scaling", "rows", "den", "_float")

    def __init__(self, reference, simplex, scaling, rows, den):
        self.reference = reference
        self.simplex = simplex
        self.scaling = scaling
        self.rows = rows
        self.den = den
        self._float = None

    @property
    def as_float(self) -> np.ndarray:
        """The matrix as floats: int / int rounds each exact entry once, as
        float(Fraction) does."""
        if self._float is None:
            den = self.den
            self._float = np.array([[v / den for v in row] for row in self.rows])
            self._float.flags.writeable = False
        return self._float

    def combine(self, coeffs) -> PolyForm:
        """The member sum_i coeffs[i] (S R)_i of the shape space, as the
        reference forms R combined with S^T coeffs: no scaled form is built.

        Floats are refused, as by ``ShapeSpace.combine``.
        """
        shape, den, dim = self.scaling.shape, self.scaling.shape_den, self.reference.space.dim
        if len(coeffs) != dim:
            raise ValueError(f"expected {dim} coefficients, got {len(coeffs)}")
        if any(isinstance(c, float) for c in coeffs):
            raise TypeError("combine takes exact (Fraction or int) coefficients, not floats")
        exact = [Fraction(c) for c in coeffs]
        lcd = math.lcm(*(c.denominator for c in exact))
        ints = [c.numerator * (lcd // c.denominator) for c in exact]
        # (S^T c)_a over one denominator: one Fraction per reference form
        return self.reference.space.combine(
            [Fraction(sum(map(mul, ints, column)), lcd * den) for column in zip(*shape)]
        )


def local_element(simplex: Simplex, k: int) -> DofMatrix:
    """The local element of k-forms on ``simplex``, 1 <= k <= n-1.

    Its DOF matrix E D S^T is one ``ReferenceElement.pair`` of the
    reference element of (simplex.n, k), kept as its integer rows.
    """
    ref = reference_element(simplex.n, k)
    return DofMatrix(ref, simplex, *ref.pair(simplex))


@dataclass(frozen=True, eq=False)
class FormCallback:
    """Pointwise k-form data for quadrature-based DOF evaluation.

    Each attribute maps an array of points with shape (nq, n) in global
    coordinates to component values (nq, #indices), components in the
    lexicographic multi-index order of the respective degree.  ``d`` and
    ``delta`` supply the exterior derivative and the Green-sign
    codifferential; all three are required.  Immutable and hashed by
    identity, so a callback can key a cache of its values.
    """

    value: Callable[[np.ndarray], np.ndarray]
    d: Callable[[np.ndarray], np.ndarray]
    delta: Callable[[np.ndarray], np.ndarray]


def poly_values(p: Polynomial, centered: np.ndarray, out: np.ndarray) -> None:
    """Evaluate a centered-coordinate polynomial at float points (..., n) into ``out``."""
    out[...] = 0.0
    for e, c in p.terms.items():
        mono = float(c)  # c times the powers, left to right, broadcast at the first
        for j, power in enumerate(e):
            if power == 1:
                mono = mono * centered[..., j]
            elif power > 1:
                mono = mono * centered[..., j] ** power
        out += mono


def form_values(w: PolyForm, centered: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Component values (..., #indices) in lexicographic index order.

    Each component is evaluated straight into its slot of ``out`` (any
    view of that shape, such as a strided slice of a node table), or of
    a new array; ``out`` is returned.
    """
    idx = multi_indices(w.k, w.n)
    if out is None:
        out = np.empty(centered.shape[:-1] + (len(idx),))
    for pos, alpha in enumerate(idx):
        p = w.comps.get(alpha)
        if p is None:
            out[..., pos] = 0.0
        else:
            poly_values(p, centered, out[..., pos])
    return out


def node_values(mu: FormCallback, points: np.ndarray) -> np.ndarray:
    """Value (x, y), d and Green delta of a planar 1-form callback at points (..., 2): (..., 4)."""
    flat = points.reshape(-1, 2)
    parts = [np.asarray(f(flat), dtype=float) for f in (mu.value, mu.d, mu.delta)]
    return np.column_stack(parts).reshape(*points.shape[:-1], 4)


def dof_values(mu: PolyForm, matrix: DofMatrix) -> list[Fraction]:
    """The exact values of all DOF functionals of the local element on ``mu``.

    ``mu`` is a PolyForm; the values are Fractions.  The float DOFs of a
    FormCallback are ``globalspace.global_interpolate``'s, for all cells
    at once.
    """
    if not isinstance(mu, PolyForm):
        raise TypeError(
            f"dof_values takes a PolyForm, got {type(mu).__name__}; the float DOFs "
            "of a FormCallback are global_interpolate's"
        )
    # the reference DOF rows T paired with the graph of mu, row i times
    # E_ii; the coefficient blocks of T are the reference element's own
    graph = [(exterior_derivative(mu), codifferential_green(mu), mu)]
    pairing = matrix.reference._pairing.against(graph)
    rows, rden = pairing.contract(*matrix.simplex.integer_moments(pairing.exponents))
    E, den = matrix.scaling.tests, matrix.scaling.tests_den
    return [Fraction(e * row[0], den * rden) for e, row in zip(E, rows)]


def solve_dofs(values, matrix: DofMatrix, method: str = DIRECT) -> list[Fraction]:
    """Exact shape-basis coefficients whose DOF values on ``matrix`` are ``values``.

    ``values`` holds one exact number (Fraction or int) per DOF, as
    ``dof_values`` returns; a wrong count raises ValueError, and a float
    entry (a float array included) TypeError, since a float is not
    finished in Fractions.  DIRECT solves the full DofMatrix system.
    FOURSTEP solves the four decoupled blocks in sequence (delta part,
    constant part, d part, quadratic d part); the two agree exactly.
    Each solve is one ``_bareiss`` on the matrix's integer rows augmented
    with the right-hand side over its common denominator, so the only
    Fractions built are the coefficients.  A singular system raises
    ValueError.
    """
    if method not in (DIRECT, FOURSTEP):
        raise ValueError(f"unknown interpolation method {method!r}")
    M, space, dofs = matrix.rows, matrix.reference.space, matrix.reference.tests
    if len(values) != len(M):
        raise ValueError(f"expected {len(M)} DOF values, got {len(values)}")
    inexact = [v for v in values if not isinstance(v, Rational)]
    if inexact:
        raise TypeError(
            f"solve_dofs takes exact (Fraction or int) DOF values, got {type(inexact[0]).__name__}"
        )

    def solve(rows, cols, rhs):
        # (M / den) x = b / q is M y = b with x = den y / q
        q = math.lcm(*(v.denominator for v in rhs))
        aug = [
            [*(M[r][c] for c in cols), v.numerator * (q // v.denominator)]
            for r, v in zip(rows, rhs)
        ]
        done = _bareiss(aug, len(cols))
        if done is None:
            raise ValueError("singular rational system")
        scale = q * done[1]  # row i of aug ends in det * y_i
        return [Fraction(matrix.den * row[-1], scale) for row in aug]

    if method == DIRECT:
        every = list(range(space.dim))
        return solve(every, every, values)

    coeffs = [Fraction(0)] * space.dim

    def step(rows, block, rhs):
        for c, v in zip(space.blocks[block], solve(rows, list(space.blocks[block]), rhs)):
            coeffs[c] = v

    off = len(dofs.eta_basis)
    tau0 = [off + i for i in dofs.tau_blocks[P0]]
    tauk = [off + i for i in dofs.tau_blocks[KAPPA]]
    eta0 = list(dofs.eta_blocks[P0])
    etak = list(dofs.eta_blocks[STARKAPPA])
    # step 1: delta block from constant tau rows
    step(tau0, STARKAPPA, [values[r] for r in tau0])
    # step 2: constant block from koszul tau rows
    step(tauk, P0, [values[r] for r in tauk])
    # step 3: koszul block from constant eta rows
    step(eta0, KAPPA, [values[r] for r in eta0])
    # step 4: quadratic block from koszul eta rows, less the constant part:
    # d mu0 = 0, so M[etak, P0] c[P0] = -<mu0, delta eta>
    p0 = space.blocks[P0]
    step(etak, H2D, [values[r] - sum(M[r][c] * coeffs[c] for c in p0) / matrix.den for r in etak])
    return coeffs

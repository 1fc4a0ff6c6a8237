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
mu) in one exact ``simplices.l2_gram`` gives the functionals.

The element is built once per (n, k), by ``reference_element``.  On
every simplex the shape basis is S R: R the fixed forms of the four
blocks in centered coordinates, without scalings, and S the simplex's
``Scaling`` (1/h, 1/h^2 and the second moments, exact rationals).  The
DOF test forms are E T the same way, with E diagonal, and the hat test
forms of the global vertex constraints H times {1, x1, x2}.  Since d
and delta are linear, every exact pairing on a simplex is L P S^T with
P a pairing of the fixed families: ``ReferenceElement.pair`` computes it
from the cached blocks of the fixed families with one
``integer_moments`` call and one integer contraction, and applies the
scalings in Python ints.  No scaled test form is ever built: the exact
DOF values of a PolyForm mu are one ``l2_gram`` of the reference Green
rows T with the graph of mu, row i times E_ii.

A DofMatrix is the local element of one simplex, and ``local_element``
its one constructor, one ``pair`` (``CellTemplate`` builds its own from
a three-group ``pair``): its scaling and the exact and float DOF matrix,
built once and passed to dof_values, interpolate_coeffs and interpolate;
its shape space as PolyForms S R is made only when read.  Row order: eta
block (constants then koszul-type), then tau block (constants then
koszul-type); columns follow the shape basis.  The four-step solve is
block forward substitution in that matrix, written once over a block
solve that is exact for PolyForm input and float for callbacks.
interpolate returns the exact interpolant of a PolyForm only; a
callback's float coefficients come from interpolate_coeffs and are never
turned back into Fractions.

``ReferenceElement.tables`` evaluates the fixed forms of the planar
1-form element at the quadrature nodes of a whole stack of elements at
once and scales them by the stacked float S and E; node_tables is its
one-element case.  quadrature_dofs applies the Green functionals in
floats to fields given by their node values.  This pair is the one float
quadrature of the functionals: dof_values of a callback, the unisolvence
suite's projection check and the cellwise global interpolation all use
it.  quadrature_rows writes it as a matrix against node values, for all
templates at once, by applying quadrature_dofs at each node to unit
fields.

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
from .simplices import Pairing, Simplex, as_fractions, l2_gram, quadrature_rule, solve_rational

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
    "node_tables",
    "node_values",
    "quadrature_dofs",
    "quadrature_rows",
    "interpolate",
    "interpolate_coeffs",
]

P0 = "P0"
KAPPA = "KAPPA"
STARKAPPA = "STARKAPPA"
H2D = "H2D"

DIRECT = "direct"
FOURSTEP = "fourstep"


def build_h2d_form(alpha: tuple[int, ...], simplex: Simplex) -> PolyForm:
    """Quadratic shape form on dx^alpha: d of it is koszul-type, delta is 0."""
    n = simplex.n
    beta = complement(tuple(alpha), n)
    if not beta:
        raise ValueError("H2D form needs a nonempty complement (k < n)")
    poly = Polynomial(n)
    for b in beta:
        xb = Polynomial.variable(n, b)
        poly = poly + xb * xb - Polynomial.constant(n, simplex.second_moments[b - 1])
    return PolyForm(n, len(alpha), {tuple(alpha): poly})


def build_h2delta_form(alpha: tuple[int, ...], simplex: Simplex) -> PolyForm:
    """Companion quadratic with delta = 0 and constant d; not a shape form."""
    n = simplex.n
    alpha = tuple(alpha)
    if not alpha:
        raise ValueError("the delta-companion quadratic needs k >= 1")
    poly = Polynomial(n)
    for a in alpha:
        xa = Polynomial.variable(n, a)
        poly = poly + xa * xa - Polynomial.constant(n, simplex.second_moments[a - 1])
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

    def block_basis(self, name: str) -> list[PolyForm]:
        r = self.blocks[name]
        return self.basis[r.start : r.stop]

    def combine(self, coeffs) -> PolyForm:
        """Exact linear combination of the basis with rational coefficients.

        Floats are refused: a float result is not finished in Fractions.
        """
        if len(coeffs) != len(self.basis):
            raise ValueError(f"expected {len(self.basis)} coefficients, got {len(coeffs)}")
        out = PolyForm.zero(self.n, self.k)
        for c, mu in zip(coeffs, self.basis):
            if isinstance(c, float):
                raise TypeError("combine takes exact (Fraction or int) coefficients, not floats")
            if c != 0:
                out = out + c * mu
        return out


class DofBasis:
    """Test forms for the DOF functionals, with named sub-blocks.

    ``eta_basis`` holds (k+1)-forms (constants, then star-koszul-star of
    constant k-forms); ``tau_basis`` holds (k-1)-forms (constants, then
    koszul of constant k-forms).  The two sub-blocks of each family are
    mutually L2-orthogonal on the simplex because every koszul-type
    component has zero mean.  ``eta_green``/``tau_d`` hold the Green
    codifferential / exterior derivative of each test form.  Any other
    family of test forms for the two Green functionals, such as the hat
    forms of the global vertex constraints, fits the same holder with
    empty blocks.
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


def _test_family(n, k, eta, tau, eta_blocks=None, tau_blocks=None) -> DofBasis:
    """An unscaled test family with its Green delta and d, for the reference element."""
    return DofBasis(
        n,
        k,
        eta,
        tau,
        eta_blocks or {},
        tau_blocks or {},
        [codifferential_green(e) for e in eta],
        [exterior_derivative(t) for t in tau],
    )


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


def _sandwich(left, block, right) -> list[list[int]]:
    """L P R^T in Python ints, all three as lists of rows."""
    pr = [[sum(map(mul, row, rrow)) for rrow in right] for row in block]
    return [[sum(map(mul, lrow, col)) for col in zip(*pr)] for lrow in left]


def _scaled_forms(rows, den: int, forms: list[PolyForm]) -> list[PolyForm]:
    """The forms sum_a (rows[i][a] / den) forms[a], one per row."""
    out = []
    for row in rows:
        terms = [Fraction(v, den) * w for v, w in zip(row, forms) if v]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        out.append(total)
    return out


class Scaling:
    """The exact scalings of the reference families on one simplex, in Python ints.

    The shape basis is S R and the DOF test forms E T, with R and T the
    reference element's families.  ``shape`` holds the rows of S over
    ``shape_den``: 1 on P0, 1/h on KAPPA and STARKAPPA, 1/h^2 on H2D,
    and -c^alpha/h^2 from each H2D member into the P0 member of the same
    alpha.  ``tests`` holds the rows of the diagonal E over ``tests_den``:
    1 on the constant tests and 1/h on the koszul-type ones.
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
        return S, np.array([row[i] / self.tests_den for i, row in enumerate(self.tests)])


GRAM = "gram"
DOFS = "dofs"
HATS = "hats"


class ReferenceElement:
    """The element's fixed families for one (n, k), built once (``reference_element``).

    On every simplex the shape basis is S R with R the unscaled forms

        dx^alpha;  koszul(dx^beta);  star koszul star(dx^gamma);  sum_b (x^b)^2 dx^alpha

    (b over complement(alpha)) in centered coordinates, and S the
    simplex's ``Scaling``.  The DOF test forms are E times the unscaled
    ``tests``, and for the planar 1-form element the hat test forms of
    the global vertex constraints are H times ``hats``, the monomials
    {1, x1, x2} as 0-forms and times dx^12, with H the 3x3 matrix of
    ``Simplex.hat_coefficients``.  d and delta are linear, so the graph
    of S R is S times the graph of R, and every exact pairing on a
    simplex is L P S^T with P the pairing of two fixed families: ``pair``
    computes P with one ``integer_moments`` call and one
    ``Pairing.contract`` (blocks built here once) and applies L and S in
    Python ints.  ``space``, ``tests`` and ``hats`` are the unscaled
    families, with ``space.d_basis``/``space.delta_basis`` its graph.
    """

    __slots__ = ("n", "k", "space", "tests", "hats", "rows", "_squares", "_pairings")

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
        self.tests = _test_family(
            n,
            k,
            eta,
            tau,
            {P0: range(n_eta0), STARKAPPA: range(n_eta0, len(eta))},
            {P0: range(n_tau0), KAPPA: range(n_tau0, len(tau))},
        )
        self.hats = None
        if (n, k) == (2, 1):
            monomials = [Polynomial.constant(2, 1), *x]
            self.hats = _test_family(
                2,
                1,
                [PolyForm(2, 2, {(1, 2): p}) for p in monomials],
                [PolyForm(2, 0, {(): p}) for p in monomials],
            )
        graph = list(zip(self.space.d_basis, self.space.delta_basis, basis))
        self.rows = {GRAM: graph, DOFS: _green_rows(self.tests)}
        if self.hats is not None:
            self.rows[HATS] = _green_rows(self.hats)
        self._squares = [tuple(2 * (i == j) for i in range(n)) for j in range(n)]
        self._pairings = {
            groups: Pairing([row for g in groups for row in self.rows[g]], graph)
            for groups in ((DOFS,), tuple(self.rows))
        }

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
        eye = [[v * (i == j) for j in range(len(tests))] for i, v in enumerate(tests)]
        return Scaling(shape, hn * hn * cd, eye, hn)

    def pair(self, simplex: Simplex, groups=(DOFS,)) -> tuple[Scaling, dict]:
        """Exact pairings of the scaled families with the graph of S R on ``simplex``.

        ``groups`` names the left families, (DOFS,) or all of ``rows``:
        GRAM the graph of S R itself (the graph-norm Gram S G S^T), DOFS
        the Green functionals of the DOF tests (the DOF matrix E D S^T)
        and HATS those of the hat tests (the Whitney rows H W S^T, rot
        rows then div rows, one per vertex).  Returns the simplex's
        ``Scaling`` and, per group, (integer rows, denominator).  One
        ``integer_moments`` call serves the pairing and the second
        moments of S.
        """
        pairing = self._pairings[groups]
        moments, mden = simplex.integer_moments(pairing.exponents + self._squares)
        second = [Fraction(moments[e], mden) / simplex.volume for e in self._squares]
        scaling = self.scaling(simplex, second)
        rows, den = pairing.contract(moments, mden)
        out = {}
        for g in groups:
            block, rows = rows[: len(self.rows[g])], rows[len(self.rows[g]) :]
            if g == GRAM:
                left, lden = scaling.shape, scaling.shape_den
            elif g == DOFS:
                left, lden = scaling.tests, scaling.tests_den
            else:  # H = blockdiag(hat coefficients, hat coefficients): rot rows, then div
                hats, lden = simplex.hat_coefficients()
                left = [[*row, 0, 0, 0] for row in hats] + [[0, 0, 0, *row] for row in hats]
            out[g] = (_sandwich(left, block, scaling.shape), den * lden * scaling.shape_den)
        return scaling, out

    def shape_space(self, scaling: Scaling) -> ShapeSpace:
        """The shape basis S R of one simplex's ``scaling``, with its graph S dR, S delta R."""
        rows, den, ref = scaling.shape, scaling.shape_den, self.space
        return ShapeSpace(
            self.n,
            self.k,
            _scaled_forms(rows, den, ref.basis),
            ref.blocks,
            _scaled_forms(rows, den, ref.d_basis),
            _scaled_forms(rows, den, ref.delta_basis),
        )

    def tables(self, vertices, volumes, shape_scale, test_scale, order: int) -> dict:
        """Quadrature-node value tables of a stack of planar 1-form elements.

        ``vertices`` (T, 3, 2) are the centered vertices, ``volumes`` (T,)
        the areas, and ``shape_scale`` (T, 6, 6) and ``test_scale`` (T, 6)
        the float S and diagonal E of each element (``Scaling.floats``).
        The reference families are evaluated at every element's nodes at
        once and then scaled, S summed term by term with no fused
        multiply-add, so each value rounds as the scaled form's own
        coefficients would.  Keys as ``node_tables``, each with the
        leading axis T.
        """
        if self.hats is None:
            raise ValueError(
                f"node tables need the planar 1-form element, got n={self.n}, k={self.k}"
            )
        bary, w = quadrature_rule(2, order)
        nodes = np.array([[float(b) for b in node] for node in bary]) @ vertices
        weights = np.array([float(x) for x in w]) * 2.0 * volumes[:, None]
        space, tests = self.space, self.tests

        def stack(forms, evaluate):
            return np.stack([evaluate(f) for f in forms], axis=1)

        def shape(table):  # sum_a S[:, i, a] table[:, a]
            scale = shape_scale.reshape(shape_scale.shape + (1,) * (table.ndim - 2))
            return sum(scale[:, :, a] * table[:, None, a] for a in range(table.shape[1]))

        def components(w):
            return form_values(w, nodes)

        def scalar(w):  # the one component of a 0- or 2-form
            return poly_values(w.component(w.indices()[0]), nodes)

        eta_e, tau_e = test_scale[:, : len(tests.eta_basis)], test_scale[:, len(tests.eta_basis) :]
        return {
            "centered": nodes,
            "weights": weights,
            "val": shape(stack(space.basis, components)),
            "dval": shape(stack(space.d_basis, scalar)),
            "gval": shape(stack(space.delta_basis, scalar)),
            "eta_v": eta_e[:, :, None] * stack(tests.eta_basis, scalar),
            "eta_g": eta_e[:, :, None, None] * stack(tests.eta_green, components),
            "tau_v": tau_e[:, :, None] * stack(tests.tau_basis, scalar),
            "tau_d": tau_e[:, :, None, None] * stack(tests.tau_d, components),
        }


@lru_cache(maxsize=None)
def reference_element(n: int, k: int) -> ReferenceElement:
    """The ``ReferenceElement`` of (n, k), built once per process."""
    return ReferenceElement(n, k)


class DofMatrix:
    """The local element on one simplex, built once and reused.

    Owns the simplex, its ``Scaling`` and the functional-by-shape matrix
    (rows eta then tau, columns shape basis), exact and as floats.  The
    shape space as PolyForms is built from the reference element when
    first read, so a DofMatrix itself builds no PolyForm.
    """

    __slots__ = ("reference", "simplex", "scaling", "exact", "_space")

    def __init__(self, reference, simplex, scaling, exact):
        self.reference = reference
        self.simplex = simplex
        self.scaling = scaling
        self.exact = exact
        self._space = None

    @property
    def space(self) -> ShapeSpace:
        if self._space is None:
            self._space = self.reference.shape_space(self.scaling)
        return self._space

    @property
    def as_float(self) -> np.ndarray:
        return np.array(self.exact, dtype=float)

    def cond(self) -> float:
        return float(np.linalg.cond(self.as_float))


def local_element(simplex: Simplex, k: int) -> DofMatrix:
    """The local element of k-forms on ``simplex``, 1 <= k <= n-1.

    Its DOF matrix E D S^T is one ``ReferenceElement.pair`` of the
    reference element of (simplex.n, k).
    """
    ref = reference_element(simplex.n, k)
    scaling, out = ref.pair(simplex)
    return DofMatrix(ref, simplex, scaling, as_fractions(*out[DOFS]))


@dataclass
class FormCallback:
    """Pointwise k-form data for quadrature-based DOF evaluation.

    Each attribute maps an array of points with shape (nq, n) in global
    coordinates to component values (nq, #indices), components in the
    lexicographic multi-index order of the respective degree.  ``d`` and
    ``delta`` supply the exterior derivative and the Green-sign
    codifferential; interpolation requires all three.
    """

    value: Callable[[np.ndarray], np.ndarray]
    d: Callable[[np.ndarray], np.ndarray] | None = None
    delta: Callable[[np.ndarray], np.ndarray] | None = None


def poly_values(p: Polynomial, centered: np.ndarray) -> np.ndarray:
    """Evaluate a centered-coordinate polynomial at float points (..., n)."""
    out = np.zeros(centered.shape[:-1])
    for e, c in p.terms.items():
        mono = np.full(centered.shape[:-1], float(c))
        for j, power in enumerate(e):
            if power == 1:
                mono = mono * centered[..., j]
            elif power > 1:
                mono = mono * centered[..., j] ** power
        out += mono
    return out


def form_values(w: PolyForm, centered: np.ndarray) -> np.ndarray:
    """Component values (..., #indices) in lexicographic index order."""
    idx = multi_indices(w.k, w.n)
    out = np.zeros(centered.shape[:-1] + (len(idx),))
    for pos, alpha in enumerate(idx):
        p = w.comps.get(alpha)
        if p is not None:
            out[..., pos] = poly_values(p, centered)
    return out


def node_tables(matrix: DofMatrix, order: int) -> dict[str, np.ndarray]:
    """Quadrature-node value tables of a planar 1-form element, centered coordinates.

    Keys: centered (nq,2), weights (nq,), val (6,nq,2), dval (6,nq),
    gval (6,nq) of the shape basis, its d and its Green delta; eta_v
    (3,nq), eta_g (3,nq,2), tau_v (3,nq), tau_d (3,nq,2) of the DOF test
    forms, the delta of eta and the d of tau.  The nodes are the
    ``quadrature_rule`` of the given order on the simplex.  This is
    ``ReferenceElement.tables`` on a stack of one element.
    """
    simplex = matrix.simplex
    verts = np.array([[[float(x) for x in v] for v in simplex.centered]])
    S, E = matrix.scaling.floats()
    tab = matrix.reference.tables(verts, np.array([float(simplex.volume)]), S[None], E[None], order)
    return {key: value[0] for key, value in tab.items()}


def node_values(mu: FormCallback, points: np.ndarray) -> np.ndarray:
    """Value (x, y), d and Green delta of a planar 1-form callback at points (..., 2): (..., 4)."""
    flat = points.reshape(-1, 2)
    parts = [np.asarray(f(flat), dtype=float) for f in (mu.value, mu.d, mu.delta)]
    return np.column_stack(parts).reshape(*points.shape[:-1], 4)


def quadrature_dofs(
    tab: dict[str, np.ndarray], val: np.ndarray, dval: np.ndarray, gval: np.ndarray
) -> np.ndarray:
    """Float Green functionals (..., C, 6) of C fields, by quadrature on ``node_tables``.

    ``val`` (C,nq,2), ``dval`` (C,nq) and ``gval`` (C,nq) are each
    field's value, d and Green delta at the nodes of ``tab``.  Columns
    follow the DOF rows: F_eta for each eta, then F_tau for each tau.
    Leading axes of ``tab`` (stacked elements) lead the result too.
    """
    w = tab["weights"]
    f_eta = np.einsum("...q,...eq,...cq->...ce", w, tab["eta_v"], dval) - np.einsum(
        "...q,...eqx,...cqx->...ce", w, tab["eta_g"], val
    )
    f_tau = np.einsum("...q,...tq,...cq->...ct", w, tab["tau_v"], gval) - np.einsum(
        "...q,...tqx,...cqx->...ct", w, tab["tau_d"], val
    )
    return np.concatenate([f_eta, f_tau], axis=-1)


def quadrature_rows(tab: dict[str, np.ndarray]) -> np.ndarray:
    """``quadrature_dofs`` as rows (..., nq, 4, 6) against ``node_values`` N (nq, 4).

    The DOFs of a field are the sum over (q, k) of N[q, k] rows[q, k]: each
    node is a one-point rule, applied to the four unit fields there.
    """
    one_point = {
        "weights": tab["weights"][..., None],
        "eta_v": np.moveaxis(tab["eta_v"], -1, -2)[..., None],
        "eta_g": np.moveaxis(tab["eta_g"], -2, -3)[..., None, :],
        "tau_v": np.moveaxis(tab["tau_v"], -1, -2)[..., None],
        "tau_d": np.moveaxis(tab["tau_d"], -2, -3)[..., None, :],
    }
    unit = np.eye(4)[:, None]  # (field, node, component)
    return quadrature_dofs(one_point, unit[..., :2], unit[..., 2], unit[..., 3])


def dof_values(mu, matrix: DofMatrix, quad_order: int = 6):
    """Evaluate all DOF functionals of the local element on ``mu``.

    PolyForm input takes the exact rational path and returns Fractions.
    A FormCallback, which must carry value, d and delta, is evaluated at
    the nodes of ``node_tables`` and integrated by ``quadrature_dofs``,
    returning a float array; this path serves the planar 1-form element
    only.
    """
    if isinstance(mu, PolyForm):
        # the reference DOF rows T paired with the graph of mu, row i times E_ii
        graph = [(exterior_derivative(mu), codifferential_green(mu), mu)]
        rows = l2_gram(matrix.reference.rows[DOFS], graph, matrix.simplex)
        E, den = matrix.scaling.tests, matrix.scaling.tests_den
        return [Fraction(E[i][i], den) * row[0] for i, row in enumerate(rows)]
    if not isinstance(mu, FormCallback):
        raise TypeError("mu must be a PolyForm or a FormCallback")
    if mu.d is None or mu.delta is None:
        raise ValueError("callback interpolation needs d and delta data alongside values")
    ref = matrix.reference
    if (ref.n, ref.k) != (2, 1):
        raise ValueError(
            f"callback DOFs need the planar 1-form element, got n={ref.n}, k={ref.k}"
        )
    tab = node_tables(matrix, quad_order)
    pts = np.array([float(x) for x in matrix.simplex.barycenter]) + tab["centered"]
    values = node_values(mu, pts[None])  # one field
    return quadrature_dofs(tab, values[..., :2], values[..., 2], values[..., 3])[0]


def interpolate_coeffs(mu, matrix: DofMatrix, method: str = DIRECT, quad_order: int = 6):
    """Coefficients (shape-basis order) of the local interpolant of ``mu``.

    DIRECT solves the full DofMatrix system.  FOURSTEP solves the four
    decoupled blocks in sequence (delta part, constant part, d part,
    quadratic d part); the two agree to rounding and exactly on the
    rational path.  PolyForm input solves with exact Fractions, a
    FormCallback with floats; both run the same steps.
    """
    if method not in (DIRECT, FOURSTEP):
        raise ValueError(f"unknown interpolation method {method!r}")
    # block layout from the reference element: a callback builds no PolyForm
    space, dofs = matrix.reference.space, matrix.reference.tests
    vals = dof_values(mu, matrix, quad_order=quad_order)
    if isinstance(mu, PolyForm):
        M = matrix.exact
        coeffs = [Fraction(0)] * space.dim

        def solve(rows, cols, rhs):
            sub = [[M[r][c] for c in cols] for r in rows]
            return [x[0] for x in solve_rational(sub, [[v] for v in rhs])]

    else:
        M = matrix.as_float
        coeffs = np.zeros(space.dim)

        def solve(rows, cols, rhs):
            return np.linalg.solve(M[np.ix_(rows, cols)], np.asarray(rhs, dtype=float))

    if method == DIRECT:
        every = list(range(space.dim))
        return solve(every, every, vals)

    def step(rows, block, rhs):
        for c, v in zip(space.blocks[block], solve(rows, list(space.blocks[block]), rhs)):
            coeffs[c] = v

    off = len(dofs.eta_basis)
    tau0 = [off + i for i in dofs.tau_blocks[P0]]
    tauk = [off + i for i in dofs.tau_blocks[KAPPA]]
    eta0 = list(dofs.eta_blocks[P0])
    etak = list(dofs.eta_blocks[STARKAPPA])
    # step 1: delta block from constant tau rows
    step(tau0, STARKAPPA, [vals[r] for r in tau0])
    # step 2: constant block from koszul tau rows
    step(tauk, P0, [vals[r] for r in tauk])
    # step 3: koszul block from constant eta rows
    step(eta0, KAPPA, [vals[r] for r in eta0])
    # step 4: quadratic block from koszul eta rows, less the constant part:
    # d mu0 = 0, so M[etak, P0] c[P0] = -<mu0, delta eta>
    p0 = space.blocks[P0]
    step(etak, H2D, [vals[r] - sum(M[r][c] * coeffs[c] for c in p0) for r in etak])
    return coeffs


def interpolate(mu: PolyForm, matrix: DofMatrix, method: str = DIRECT) -> PolyForm:
    """The exact local interpolant of a PolyForm, as a PolyForm.

    A FormCallback has float DOF values; ``interpolate_coeffs`` returns
    its float coefficients.
    """
    if not isinstance(mu, PolyForm):
        raise TypeError(
            "interpolate takes a PolyForm; use interpolate_coeffs for the float "
            "coefficients of a FormCallback"
        )
    return matrix.space.combine(interpolate_coeffs(mu, matrix, method=method))

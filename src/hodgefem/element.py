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
zero mean.  The companion family build_h2delta_form (quadratics in the
alpha-variables, delta = 0, d constant) is provided for identity tests
but is not part of the shape space.

Degrees of freedom pair the form with test forms through the two Green
functionals (delta below is the Green/adjoint sign, see forms):

    F_eta(mu) = <d mu, eta> - <mu, delta eta>,   eta in P0^{k+1} + star koszul star P0^k
    F_tau(mu) = <delta mu, tau> - <mu, d tau>,   tau in P0^{k-1} + koszul P0^k

green_pairing is the one implementation of these two functionals: it
pairs a list of forms with any family of eta and tau test forms, and
the global vertex constraints use it with hat test forms.  It is one
exact ``simplices.l2_gram`` of the graph (d mu, delta mu, mu) with the
test members (eta, 0, -delta eta) and (0, tau, -d tau).

A DofMatrix is the local element of one simplex: shape space, DOF
basis and the exact and float DOF matrix, built once and passed to
dof_values, interpolate_coeffs and interpolate.  Row order: eta block
(constants then koszul-type), then tau block (constants then
koszul-type); columns follow the shape basis.  The four-step solve is
block forward substitution in that matrix, written once over a block
solve that is exact for PolyForm input and float for callbacks.
interpolate returns the exact interpolant of a PolyForm only; a
callback's float coefficients come from interpolate_coeffs and are
never turned back into Fractions.

node_tables evaluates the planar 1-form element's shape basis and DOF
test forms at quadrature nodes, and quadrature_dofs applies the Green
functionals in floats to fields given by their node values.  This pair
is the one float quadrature of the functionals: dof_values of a
callback, the unisolvence suite's projection check and the cellwise
global interpolation all use it.  quadrature_rows writes it as a matrix
against node values, for all templates at once, by applying
quadrature_dofs at each node to unit fields.

Scaling keeps the DofMatrix condition number independent of the simplex
diameter: koszul-type shape and test forms carry 1/h, the H2D block
1/h^2, with h a rational Chebyshev-diameter surrogate so the exact
rational path is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .simplices import Simplex, l2_gram, quadrature_rule, solve_rational

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
    "FormCallback",
    "build_h2d_form",
    "build_h2delta_form",
    "build_shape_space",
    "build_dof_basis",
    "build_dof_matrix",
    "green_pairing",
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
    cache the exterior derivative / Green codifferential of each basis
    form.
    """

    __slots__ = (
        "n",
        "k",
        "simplex",
        "basis",
        "blocks",
        "d_basis",
        "delta_basis",
    )

    def __init__(self, n, k, simplex, basis, blocks):
        self.n = n
        self.k = k
        self.simplex = simplex
        self.basis = basis
        self.blocks = blocks
        self.d_basis = [exterior_derivative(mu) for mu in basis]
        self.delta_basis = [codifferential_green(mu) for mu in basis]

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


def build_shape_space(n: int, k: int, simplex: Simplex) -> ShapeSpace:
    """Assemble the four-block shape basis on a simplex.

    Requires 1 <= k <= n-1 (both neighbor degrees must exist) and a
    nondegenerate simplex (Simplex construction already enforces that).
    """
    if simplex.n != n:
        raise ValueError(f"simplex dimension {simplex.n} does not match n={n}")
    if not (1 <= k <= n - 1):
        raise ValueError(f"form degree k={k} outside 1..{n - 1}")
    inv_h = Fraction(1) / simplex.h_scale
    basis: list[PolyForm] = []
    blocks: dict[str, range] = {}

    start = len(basis)
    for alpha in multi_indices(k, n):
        basis.append(PolyForm.basis(n, alpha))
    blocks[P0] = range(start, len(basis))

    start = len(basis)
    for beta in multi_indices(k + 1, n):
        basis.append(inv_h * koszul(PolyForm.basis(n, beta)))
    blocks[KAPPA] = range(start, len(basis))

    start = len(basis)
    for gamma in multi_indices(k - 1, n):
        basis.append(inv_h * _star_koszul_star(PolyForm.basis(n, gamma)))
    blocks[STARKAPPA] = range(start, len(basis))

    start = len(basis)
    for alpha in multi_indices(k, n):
        basis.append(inv_h * inv_h * build_h2d_form(alpha, simplex))
    blocks[H2D] = range(start, len(basis))

    return ShapeSpace(n, k, simplex, basis, blocks)


class DofBasis:
    """Test forms for the DOF functionals, with named sub-blocks.

    ``eta_basis`` holds (k+1)-forms (constants, then star-koszul-star of
    constant k-forms); ``tau_basis`` holds (k-1)-forms (constants, then
    koszul of constant k-forms).  The two sub-blocks of each family are
    mutually L2-orthogonal on the simplex because every koszul-type
    component has zero mean.  ``eta_green``/``tau_d`` cache the Green
    codifferential / exterior derivative of each test form.  Any other
    family of test forms for the two Green functionals, such as the hat
    forms of the global vertex constraints, fits the same holder with
    empty blocks.
    """

    __slots__ = (
        "n",
        "k",
        "simplex",
        "eta_basis",
        "tau_basis",
        "eta_blocks",
        "tau_blocks",
        "eta_green",
        "tau_d",
    )

    def __init__(self, n, k, simplex, eta_basis, tau_basis, eta_blocks, tau_blocks):
        self.n = n
        self.k = k
        self.simplex = simplex
        self.eta_basis = eta_basis
        self.tau_basis = tau_basis
        self.eta_blocks = eta_blocks
        self.tau_blocks = tau_blocks
        self.eta_green = [codifferential_green(eta) for eta in eta_basis]
        self.tau_d = [exterior_derivative(tau) for tau in tau_basis]

    @property
    def count(self) -> int:
        return len(self.eta_basis) + len(self.tau_basis)


def build_dof_basis(n: int, k: int, simplex: Simplex) -> DofBasis:
    if simplex.n != n:
        raise ValueError(f"simplex dimension {simplex.n} does not match n={n}")
    if not (1 <= k <= n - 1):
        raise ValueError(f"form degree k={k} outside 1..{n - 1}")
    inv_h = Fraction(1) / simplex.h_scale
    eta: list[PolyForm] = []
    eta_blocks: dict[str, range] = {}
    for beta in multi_indices(k + 1, n):
        eta.append(PolyForm.basis(n, beta))
    eta_blocks[P0] = range(0, len(eta))
    start = len(eta)
    for alpha in multi_indices(k, n):
        eta.append(inv_h * _star_koszul_star(PolyForm.basis(n, alpha)))
    eta_blocks[STARKAPPA] = range(start, len(eta))

    tau: list[PolyForm] = []
    tau_blocks: dict[str, range] = {}
    for gamma in multi_indices(k - 1, n):
        tau.append(PolyForm.basis(n, gamma))
    tau_blocks[P0] = range(0, len(tau))
    start = len(tau)
    for alpha in multi_indices(k, n):
        tau.append(inv_h * koszul(PolyForm.basis(n, alpha)))
    tau_blocks[KAPPA] = range(start, len(tau))

    return DofBasis(n, k, simplex, eta, tau, eta_blocks, tau_blocks)


class DofMatrix:
    """The local element on one simplex, built once and reused.

    Owns the shape space, the DOF basis and the functional-by-shape
    matrix (rows eta then tau, columns shape basis), exact and as floats.
    """

    __slots__ = ("space", "dofs", "exact")

    def __init__(self, space: ShapeSpace, dofs: DofBasis, exact):
        self.space = space
        self.dofs = dofs
        self.exact = exact

    @property
    def as_float(self) -> np.ndarray:
        return np.array(self.exact, dtype=float)

    def cond(self) -> float:
        return float(np.linalg.cond(self.as_float))


def green_pairing(forms, d_forms, delta_forms, tests: DofBasis) -> list[list[Fraction]]:
    """Exact Green functionals of ``tests`` applied to ``forms``.

    Rows F_eta(mu) = <d mu, eta> - <mu, delta eta> for each eta of
    ``tests.eta_basis``, then F_tau(mu) = <delta mu, tau> - <mu, d tau>
    for each tau of ``tests.tau_basis``; one column per form.
    ``d_forms``/``delta_forms`` are d and the Green delta of ``forms``.
    All rows are one ``l2_gram`` on the direct sum of (k+1)-, (k-1)- and
    k-forms: the graph (d mu, delta mu, mu) is paired with
    (eta, 0, -delta eta) and with (0, tau, -d tau).
    """
    n, k = tests.n, tests.k
    up, down = PolyForm.zero(n, k + 1), PolyForm.zero(n, k - 1)
    rows = [(eta, down, -g) for eta, g in zip(tests.eta_basis, tests.eta_green)]
    rows += [(up, tau, -d) for tau, d in zip(tests.tau_basis, tests.tau_d)]
    return l2_gram(rows, list(zip(d_forms, delta_forms, forms)), tests.simplex)


def build_dof_matrix(space: ShapeSpace, dofs: DofBasis) -> DofMatrix:
    return DofMatrix(
        space, dofs, green_pairing(space.basis, space.d_basis, space.delta_basis, dofs)
    )


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
    """Evaluate a centered-coordinate polynomial at (nq, n) float points."""
    out = np.zeros(centered.shape[0])
    for e, c in p.terms.items():
        mono = np.full(centered.shape[0], float(c))
        for j, power in enumerate(e):
            if power == 1:
                mono = mono * centered[:, j]
            elif power > 1:
                mono = mono * centered[:, j] ** power
        out += mono
    return out


def form_values(w: PolyForm, centered: np.ndarray) -> np.ndarray:
    """Component values (nq, #indices) in lexicographic index order."""
    idx = multi_indices(w.k, w.n)
    out = np.zeros((centered.shape[0], len(idx)))
    for pos, alpha in enumerate(idx):
        p = w.comps.get(alpha)
        if p is not None:
            out[:, pos] = poly_values(p, centered)
    return out


def node_tables(matrix: DofMatrix, order: int) -> dict[str, np.ndarray]:
    """Quadrature-node value tables of a planar 1-form element, centered coordinates.

    Keys: centered (nq,2), weights (nq,), val (6,nq,2), dval (6,nq),
    gval (6,nq) of the shape basis, its d and its Green delta; eta_v
    (3,nq), eta_g (3,nq,2), tau_v (3,nq), tau_d (3,nq,2) of the DOF test
    forms, the delta of eta and the d of tau.  The nodes are the
    ``quadrature_rule`` of the given order on the simplex.
    """
    simplex = matrix.dofs.simplex
    bary, w = quadrature_rule(2, order)
    verts = np.array([[float(x) for x in v] for v in simplex.centered])
    nodes = np.array([[float(b) for b in node] for node in bary]) @ verts
    weights = np.array([float(x) for x in w]) * 2.0 * float(simplex.volume)
    space, dofs = matrix.space, matrix.dofs
    return {
        "centered": nodes,
        "weights": weights,
        "val": np.stack([form_values(mu, nodes) for mu in space.basis]),
        "dval": np.stack([form_values(dmu, nodes)[:, 0] for dmu in space.d_basis]),
        "gval": np.stack([poly_values(g.component(()), nodes) for g in space.delta_basis]),
        "eta_v": np.stack([form_values(eta, nodes)[:, 0] for eta in dofs.eta_basis]),
        "eta_g": np.stack([form_values(g, nodes) for g in dofs.eta_green]),
        "tau_v": np.stack([poly_values(tau.component(()), nodes) for tau in dofs.tau_basis]),
        "tau_d": np.stack([form_values(d, nodes) for d in dofs.tau_d]),
    }


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
    dofs = matrix.dofs
    if isinstance(mu, PolyForm):
        rows = green_pairing([mu], [exterior_derivative(mu)], [codifferential_green(mu)], dofs)
        return [row[0] for row in rows]
    if not isinstance(mu, FormCallback):
        raise TypeError("mu must be a PolyForm or a FormCallback")
    if mu.d is None or mu.delta is None:
        raise ValueError("callback interpolation needs d and delta data alongside values")
    if (dofs.n, dofs.k) != (2, 1):
        raise ValueError(
            f"callback DOFs need the planar 1-form element, got n={dofs.n}, k={dofs.k}"
        )
    tab = node_tables(matrix, quad_order)
    pts = np.array([float(x) for x in dofs.simplex.barycenter]) + tab["centered"]
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
    space, dofs = matrix.space, matrix.dofs
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

"""Global broken space, vertex-patch constraints, and an explicit basis.

The discrete space is the product of the local shape spaces (six
coefficients per cell, cell-major layout) intersected with the kernel of
two families of constraint functionals built from piecewise-linear hat
functions:

    div rows   (every vertex a)      sum_T <delta mu, phi_a>_T - <mu, d phi_a>_T
    rot rows   (interior vertices)   sum_T <d mu, phi_a dx^12>_T - <mu, delta(phi_a dx^12)>_T

with delta the Green-sign codifferential.  Both test families lie inside
the span of the element's DOF test forms on each cell, which is what
makes the cellwise interpolant conforming in this weak sense.  On each
cell these are the element's own Green functionals with the cell's
barycentric coordinates as test forms; their pairings with the shape
basis have closed forms (``_closed_forms``).

The kernel has an explicit local basis, built from dual local functions:
on each cell the six Whitney functionals above (three rot, three div,
one per vertex) are biorthogonalized against the shape basis, giving
mu^rot_{a,T} and mu^div_{a,T}.  Then

    DIV_PATCH  per vertex a: differences mu^div_{a,T_i} - mu^div_{a,T_{i+1}}
               along the fan around a (degree-1 functions, 2-cell support)
    ROT_PATCH  the same with mu^rot for interior vertices
    ROT_CELL   per cell, mu^rot_{a,T} for each boundary vertex a of T
               (single-cell support)

All dual coefficients are exact rationals and the constraint identities
B v = 0 hold exactly, by biorthogonality.  Congruent cells (equal up to
translation) share one template.

These functions are a basis of null(B) on every mesh that ``Triangulation``
accepts, a boundary vertex with no edge to an interior vertex included.
With c cells, nv vertices (n_int interior) and d_v cells around v,
DIV_PATCH gives sum_v (d_v - 1) = 3c - nv functions, ROT_PATCH the sum
over interior v of (d_v - 1) and ROT_CELL the sum over boundary v of d_v:
6c - nv - n_int = 6c - rows(B) in all.  The rank certificate below proves
rank(B) = rows(B), so that is the dimension of null(B).  B Phi = 0 by
biorthogonality, and K Phi = I for the fan prefix sums K of the Whitney
values (``solver._kernel_coordinates``), so the functions are independent.

Set-up costs cells plus templates, and no exact object per template.
The template key of a cell is its centered vertex tuple; cells are
sorted into classes by the same tuple in lowest integer terms, computed
for all cells at once from each cell's exact integer coordinates, and a
class is represented by its first cell and that integer tuple
(``ProductSpace.templates`` and ``shapes``).  ``ProductSpace`` holds the
one cell-to-template map (each cell's template index) and the one float
view of the templates, each float array stacked once over them.  The
one owner of a template's exact data is ``_closed_forms``: the scalings
S and E, the DOF matrix, the Whitney rows, the duals and the cell Gram
<d u, d v> + <delta u, delta v> + <u, v> of the planar element have
closed forms in the centered vertex coordinates, the area and h (which
it proves), and so has h (``_chebyshev_diameter``), evaluated for all
templates at once as fractions of Python ints.  The float view divides
each of them once, bit for bit as float(Fraction) of the exact entry
(``minv`` is the float inverse of the rounded DOF matrix), so every
exact zero stays 0.0, and B, Phi and A keep their exact sparsity.  No
Simplex, form or pairing is built for a template.
The node tables of all templates are one ``ReferenceElement.tables`` of
the stacked vertices and float scalings per quadrature order, cached per
order: the graph of the shape basis and the Green functionals at the
nodes, in the column order of a field's node values.  The load vector,
the error norms and the interpolation each apply them in one product.
A field's value, d and Green delta at the nodes of every cell are
evaluated once per (callback, order) and cached, read-only, for the life
of the space (``ProductSpace.node_values``): the interpolation and the
error norms of the same field read the same array.  The nodes themselves
are not kept; they are rebuilt per evaluation, so they do not stay
alive through the solve.
B and Phi read the same stacked 6x6 data: B gathers the float Whitney
rows, and Phi the float dual coefficients, by template index, cell and
slot.  The kernel basis is held as per-function arrays (category,
anchor, support cells, dual columns); its exact entries are one table
per template (``GlobalBasis.exact_duals``), the closed forms' duals in
lowest terms as (shape index, numerator, denominator) of Python ints,
from which the ``basis`` dump writes every line.  No Fraction is built
for it.  The rank audit is one O(nnz) certificate
from the float duals: with D = blockdiag(duals) over the cells, B D is a 0/1
selection matrix whose disjoint rows prove that B has full row rank,
which the saddle-point oracle needs.  The product space owns its B:
``build_constraints`` gathers it on the first call, read-only, and every
``ConstraintSystem`` it returns shares it, so the certificate runs once
per product space.  Input without that structure, a repeated or
dependent row included, raises; there is no dense fallback.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import scipy.sparse as sp

from .element import FormCallback, node_values, reference_element
from .mesh import Triangulation

__all__ = [
    "DIV_PATCH",
    "ROT_PATCH",
    "ROT_CELL",
    "CATEGORIES",
    "ProductSpace",
    "ConstraintSystem",
    "GlobalBasis",
    "build_product_space",
    "build_constraints",
    "build_global_basis",
    "global_interpolate",
]

_SLOT = np.arange(6)

DIV_PATCH = "DIV_PATCH"
ROT_PATCH = "ROT_PATCH"
ROT_CELL = "ROT_CELL"


class ProductSpace:
    """Cell-major broken space: coefficients [6*cell : 6*cell + 6] per cell.

    Cells are grouped into congruence classes in one integer pass over
    their exact scaled coordinates (``Triangulation.scaled_points``): with
    den a cell's common denominator, its centered coordinates are the
    integer 6-tuple 3*den*(vertex - barycenter) over 3*den, and this
    fraction in lowest terms is equal for two cells exactly when their
    centered coordinates are.  Barycenters are the exact ones rounded
    once to float.

    The one cell-to-template map: ``templates`` holds the first cell of
    each class, in order of that cell, ``shapes`` its lowest-terms
    integer row (d, x0, y0, x1, y1, x2, y2) of centered coordinates over
    d, and ``template_index[c]`` is the class of cell c.  The space holds
    the one float view of the templates, stacked over them: ``gram``,
    ``whitney``, ``duals``, the inverse DOF matrix ``minv``, the centered
    ``vertices``, the ``volumes``, the scalings ``shape_scale`` (S) and
    ``test_scale`` (the diagonal of E) and ``tables(order)``.  Each entry
    is the exact entry of the closed forms (``_chebyshev_diameter`` and
    ``_closed_forms``, over ``shapes``) rounded once, as float(Fraction)
    rounds it; no Simplex is built.  It also holds its B
    (``build_constraints``) and whether B passed the rank certificate.

    Its caches live as long as the space: ``tables`` per quadrature
    order, and ``node_values`` per (callback, order), a read-only
    (cells * nq, 4) array keyed by the callback's identity
    (``as_callback`` returns one callback per field).
    """

    def __init__(self, tri: Triangulation):
        self.tri = tri
        nc = len(tri.cells)
        num, den = tri.scaled_points(tri.corners)
        sums = num.sum(axis=1)  # 3 * den * barycenter
        # Python int division rounds each exact quotient once, as float(Fraction)
        self.barycenters = np.asarray(sums / (3 * den[:, None]), dtype=float).reshape(nc, 2)
        shapes = np.column_stack([3 * den, (3 * num - sums[:, None, :]).reshape(nc, 6)])
        reduced = shapes // np.gcd.reduce(shapes, axis=1)[:, None]
        classes: dict[tuple, list[int]] = {}
        for c, shape in enumerate(map(tuple, reduced.tolist())):
            classes.setdefault(shape, []).append(c)
        self.templates = np.array([cells[0] for cells in classes.values()], dtype=np.intp)
        self.template_index = np.empty(nc, dtype=np.intp)
        for i, cells in enumerate(classes.values()):
            self.template_index[cells] = i
        # a cell's vertices are positively oriented, so in its simplex's order
        self.shapes = reduced[self.templates]
        d, xy = self.shapes[:, :1], self.shapes[:, 1:].reshape(-1, 3, 2)
        self.vertices = np.asarray(xy / d[:, :, None], dtype=float)
        (
            self.volumes,
            self.shape_scale,
            self.test_scale,
            self.gram,
            self.whitney,
            self.duals,
            matrix,
        ) = (
            _evaluate(entries, len(self.templates), _rounded)
            for entries in _closed_forms(self.shapes, *_chebyshev_diameter(self.shapes))
        )
        self.minv = np.linalg.inv(matrix)
        self._tables: dict[int, dict[str, np.ndarray]] = {}
        self._node_values: dict[tuple, np.ndarray] = {}
        self._B: sp.csr_matrix | None = None
        self._certified = False

    @property
    def dim(self) -> int:
        return 6 * len(self.tri.cells)

    def tables(self, order: int) -> dict[str, np.ndarray]:
        """The node tables of every template (centered, so shared by congruent
        cells), stacked on axis 0: one ``ReferenceElement.tables`` of the
        stacked vertices and float scalings, cached per order."""
        tab = self._tables.get(order)
        if tab is None:
            tab = self._tables[order] = reference_element(2, 1).tables(
                self.vertices, self.volumes, self.shape_scale, self.test_scale, order
            )
        return tab

    def nodes(self, order: int) -> np.ndarray:
        """The quadrature nodes of every cell, shape (cells, nq, 2), in global coordinates."""
        return self.barycenters[:, None, :] + self.tables(order)["centered"][self.template_index]

    def node_values(self, mu: FormCallback, order: int) -> np.ndarray:
        """``node_values(mu, nodes(order))`` as rows (cell, node), columns value x,
        value y, d and Green delta: evaluated once per (mu, order) and kept,
        read-only, as long as the space.  So mu's functions must be pure."""
        values = self._node_values.get((mu, order))
        if values is None:
            values = node_values(mu, self.nodes(order)).reshape(-1, 4)
            values.flags.writeable = False
            self._node_values[mu, order] = values
        return values

    def block_diagonal(self, per_template: np.ndarray) -> sp.bsr_matrix:
        """The (dim, dim) matrix whose 6x6 block of cell c is per_template[template_index[c]]."""
        blocks = np.arange(len(self.template_index))  # block row c holds block column c
        return sp.bsr_matrix(
            (per_template[self.template_index], blocks, np.append(blocks, len(blocks))),
            shape=(self.dim,) * 2,
        )

    def by_template(self, rows: np.ndarray) -> sp.csr_matrix:
        """Per-cell rows (cells, n) at columns n t .. n t + n - 1, t the cell's template.

        ``by_template(x) @ table.reshape(templates * n, k)`` so applies each
        cell's template table in one sparse product, with no per-cell copy.
        """
        nc, n = rows.shape
        columns = n * self.template_index[:, None] + np.arange(n)
        return sp.csr_matrix(
            (rows.ravel(), columns.ravel(), n * np.arange(nc + 1)),
            shape=(nc, n * len(self.templates)),
        )


def _chebyshev_diameter(shapes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every template's h = p/q in lowest terms, as Python-int object arrays.

    h is ``Simplex.h_scale``, the Chebyshev diameter: the largest |dx| or
    |dy| over the three edges.  With ``shapes`` as in ``_closed_forms``,
    it is that largest integer difference over d, reduced by their gcd.
    """
    d, xy = shapes[:, 0], shapes[:, 1:].reshape(-1, 3, 2)
    cheb = np.abs(xy - xy[:, [1, 2, 0]]).reshape(len(d), 6).max(axis=1)
    g = np.gcd(cheb, d)
    return cheb // g, d // g


# nested (numerator, denominator) entries, each a Python int or a (T,)
# object array of them over the templates
_ClosedForms = namedtuple("_ClosedForms", "volumes shape_scale test_scale gram whitney duals matrix")


def _closed_forms(shapes: np.ndarray, p: np.ndarray, q: np.ndarray) -> _ClosedForms:
    """Every template's exact area, scalings, gram, whitney, duals and DOF matrix.

    ``shapes`` (T, 7) holds each template's integer centered coordinates
    over their denominator d, as (d, x0, y0, x1, y1, x2, y2) in the
    simplex's (counterclockwise) vertex order, and h = p/q its h
    (``_chebyshev_diameter``).  Returns the area, S (6 x 6), the diagonal
    of E (6) and the four 6 x 6 matrices as nested entries, each a
    fraction of Python ints; ``_evaluate`` stacks them over the templates.
    So one division rounds an entry's exact value once, as float(Fraction)
    does: an entry is 0.0 exactly where it is 0, whatever makes it vanish
    (the block structure, an axis-parallel edge or a symmetric cell).

    Proof.  Let v_a = (x_a, y_a) be the centered vertices, |T| the area,
    c1, c2 the second moments, lambda_a = 1/3 + g_a . x the hats and e_a =
    |T| g_a = (y_{a+1} - y_{a+2}, x_{a+2} - x_{a+1})/2.  Moments: int_T
    (u . x)^k = 2|T| k!/(k+2)! h_k(u . v_0, u . v_1, u . v_2), h_k the
    complete homogeneous symmetric polynomial, which for a zero sum is
    p2/2, p3/3 and (p2^2 + 2 p4)/8 in the power sums p_j.  So int x1 x2
    = |T| S_xy/12, int x1 x2^2 = |T| S_xyy/30 and int x2^4 = |T| (S_yy^2
    + 2 S_yyyy)/120, with S_f = sum_a f(v_a), and int lambda_a x = |T|
    v_a/12.

    h = p/q is ``Simplex.h_scale``, the largest |x_a - x_b| or |y_a - y_b|:
    differences of centered vertices are those of the vertices, so h is
    the largest such integer difference over d (``_chebyshev_diameter``).
    The shape basis S R is dx1, dx2, kappa = (-x2, x1)/h, sigma = -(x1,
    x2)/h, eta1 = (x2^2 - c2) dx1/h^2, eta2 = (x1^2 - c1) dx2/h^2, with c1
    = int x1^2/|T| = S_xx/12 and c2 = S_yy/12 by the moments above.  So
    ``Scaling`` S has the diagonal 1, 1, 1/h, 1/h, 1/h^2, 1/h^2 and off it
    only S[4, 0] = -c2/h^2 and S[5, 1] = -c1/h^2, and the DOF tests have
    E = diag(1, 1/h, 1/h, 1, 1/h, 1/h).  The basis has d = 0, 0,
    2/h, 0, -2 x2/h^2, 2 x1/h^2 and Green delta = 0, 0, 0, 2/h, 0, 0, and
    every member but dx1 and dx2 has zero mean.  As delta(f dx12) = (d2 f,
    -d1 f), the Whitney rows rot_a(mu) = <d mu, lambda_a dx12> - <mu,
    delta(lambda_a dx12)> and div_a(mu) = <delta mu, lambda_a> - <mu, d
    lambda_a> are

        rot_a   -e_a2   e_a1   2|T|/(3h)   0           -|T| y_a/(6h^2)   |T| x_a/(6h^2)
        div_a   -e_a1  -e_a2   0           2|T|/(3h)    0                 0

    and the DOF rows, for the tests dx12, x2 dx12/h, -x1 dx12/h, 1, x1/h
    and x2/h and with m_f = 2 int f/h^3, are

        eta0    0        0        2|T|/h   0        0          0
        eta1   -|T|/h    0        0        0       -m_(x2^2)   m_(x1 x2)
        eta2    0       -|T|/h    0        0        m_(x1 x2) -m_(x1^2)
        tau0    0        0        0        2|T|/h   0          0
        tau1   -|T|/h    0        0        0        0          0
        tau2    0       -|T|/h    0        0        0          0

    The graph-norm Gram <d u, d v> + <delta u, delta v> + <u, v> has the
    diagonal |T|, |T|, |T| (4 + c1 + c2)/h^2 twice, (4|T| c2 + int x2^4 -
    |T| c2^2)/h^4 and the same with x1 and c1.  Off it only kappa . eta =
    (-int x2^3, int x1^3)/h^3, sigma . eta = -(int x1 x2^2, int x1^2
    x2)/h^3 and d eta1 . d eta2 = -4 int x1 x2/h^4 are left: the other
    products vanish pointwise or pair a constant with a zero mean.

    The duals solve whitney . duals = I one column at a time, by sum_a
    e_a = 0, sum_a v_a = 0 and g_a . v_b = delta_ab - 1/3; hence g_a = M^-1
    v_a for M = sum_a v_a v_a^T, and det M = 4|T|^2/3.  Column rot_c is 0
    on dx1, dx2 and sigma, h/(2|T|) on kappa and 6 h^2 (-g_c2, g_c1)/|T|
    on (eta1, eta2).  Column div_c is -v_c/|T| on (dx1, dx2), 0 on kappa,
    h/(2|T|) on sigma and 9 h^2 M v_c/(2|T|^3) on (eta1, eta2).
    """
    d = shapes[:, 0]
    x, y = shapes[:, 1::2], shapes[:, 2::2]
    # all in Python ints: v = (x, y)/d, |T| = det/(2 d^2), h = p/q, e_a = (ex, ey)[:, a]/(2 d)
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
    nxt, prv = [1, 2, 0], [2, 0, 1]
    ex, ey = y[:, nxt] - y[:, prv], x[:, prv] - x[:, nxt]
    powers = ([x, x], [x, y], [y, y], [x, x, x], [x, x, y], [x, y, y], [y, y, y], [x] * 4, [y] * 4)
    xx, xy, yy, x3, xxy, xyy, y3, x4, y4 = (np.prod(f, axis=0).sum(axis=1) for f in powers)
    d2, p2, q2 = d * d, p * p, q * q
    # S and diag E; c2/h^2 = yy q^2/(12 d^2 p^2) and c1/h^2 the same with xx
    o, one, inv_h, inv_h2 = (0, 1), (1, 1), (q, p), (q2, p2)
    shape = [
        [one, o, o, o, o, o],
        [o, one, o, o, o, o],
        [o, o, inv_h, o, o, o],
        [o, o, o, inv_h, o, o],
        [(-yy * q2, 12 * d2 * p2), o, o, o, inv_h2, o],
        [o, (-xx * q2, 12 * d2 * p2), o, o, o, inv_h2],
    ]
    tests = [one, inv_h, inv_h, one, inv_h, inv_h]
    mass = (det, 2 * d2)
    kappa = (det * q2 * (48 * d2 + xx + yy), 24 * d2 * d2 * p2)
    cubic, quartic = 60 * d2 * d2 * d * p2 * p, 1440 * d2**3 * p2 * p2
    g24, g25 = (-det * y3 * q2 * q, cubic), (det * x3 * q2 * q, cubic)
    g34, g35 = (-det * xyy * q2 * q, cubic), (-det * xxy * q2 * q, cubic)
    g44 = (det * q2 * q2 * (240 * d2 * yy + yy * yy + 12 * y4), quartic)
    g55 = (det * q2 * q2 * (240 * d2 * xx + xx * xx + 12 * x4), quartic)
    g45 = (-det * xy * q2 * q2, 6 * d2 * d2 * p2 * p2)
    gram = [
        [mass, o, o, o, o, o],
        [o, mass, o, o, o, o],
        [o, o, kappa, o, g24, g25],
        [o, o, o, kappa, g34, g35],
        [o, o, g24, g34, g44, g45],
        [o, o, g25, g35, g45, g55],
    ]
    minus, twice = (-det * q, 2 * d2 * p), (det * q, d2 * p)  # -|T|/h, 2|T|/h
    moment = 12 * d2 * d2 * p2 * p
    m_xx, m_xy, m_yy = (det * s * q2 * q for s in (xx, xy, yy))
    matrix = [
        [o, o, twice, o, o, o],
        [minus, o, o, o, (-m_yy, moment), (m_xy, moment)],
        [o, minus, o, o, (m_xy, moment), (-m_xx, moment)],
        [o, o, o, twice, o, o],
        [minus, o, o, o, o, o],
        [o, minus, o, o, o, o],
    ]
    # k = 2|T|/(3h), and |T| v_a/(6 h^2) = det q^2 (d v_a)/eta: d v_a are the integers x, y
    k, eta = (det * q, 3 * d2 * p), 12 * d2 * d * p2
    rot_rows = [
        [(-ey[:, a], 2 * d), (ex[:, a], 2 * d), k, o]
        + [(-det * q2 * y[:, a], eta), (det * q2 * x[:, a], eta)]
        for a in range(3)
    ]
    whitney = rot_rows + [[(-ex[:, a], 2 * d), (-ey[:, a], 2 * d), o, k, o, o] for a in range(3)]
    # half = h/(2|T|); rot and div: the denominators of the eta rows of the two column blocks
    half, rot, div = (p * d2, q * det), q2 * det * det, q2 * det**3
    duals = [
        [o] * 3 + [(-2 * d * x[:, c], det) for c in range(3)],
        [o] * 3 + [(-2 * d * y[:, c], det) for c in range(3)],
        [half] * 3 + [o] * 3,
        [o] * 3 + [half] * 3,
        [(-eta * ey[:, c], rot) for c in range(3)]
        + [(3 * eta * (xx * x[:, c] + xy * y[:, c]), div) for c in range(3)],
        [(eta * ex[:, c], rot) for c in range(3)]
        + [(3 * eta * (xy * x[:, c] + yy * y[:, c]), div) for c in range(3)],
    ]

    return _ClosedForms((det, 2 * d2), shape, tests, gram, whitney, duals, matrix)


def _evaluate(entries, count: int, quotient) -> np.ndarray:
    """``quotient(numerator, denominator)`` of every nested entry of ``_closed_forms``,
    stacked with the ``count`` templates on axis 0."""
    if isinstance(entries, tuple):
        return np.full(count, quotient(*entries))
    return np.stack([_evaluate(e, count, quotient) for e in entries], axis=1)


def _rounded(n, m) -> np.ndarray:
    # Python int division rounds each exact quotient once, as float(Fraction)
    return np.asarray(n / m, dtype=float)


class ConstraintSystem:
    """Sparse constraint matrix B: div rows for every vertex, then rot rows.

    With nv vertices, row v < nv is the div functional of vertex v and row
    nv + r the rot functional of ``tri.interior_vertices[r]``.  ``prod``
    is the product space whose template duals certify the rank; the
    certificate runs on first need and keeps only its outcome (on
    ``prod`` for its own B), so B must not change after that.
    """

    def __init__(self, prod: ProductSpace, B: sp.csr_matrix):
        self.prod = prod
        self.tri = prod.tri
        self.B = B
        self._certified = False

    @property
    def rows(self) -> int:
        return self.B.shape[0]

    def rank(self) -> int:
        """Rank of B, which is ``rows``: certified in O(nnz) on the first call."""
        own = self.B is self.prod._B
        if not (self._certified or own and self.prod._certified):
            _rank_certificate(self.B, self.prod)
            self._certified = True
            self.prod._certified |= own
        return self.rows

    def nullity(self) -> int:
        return self.B.shape[1] - self.rank()


def _rank_certificate(B: sp.spmatrix, prod: ProductSpace) -> None:
    """Prove that B has full row rank, or raise ValueError naming the fault.

    Let D = blockdiag(prod.duals) over the cells.  Since whitney . duals
    = I on every template, S = B D selects shape coefficients: each entry
    is within 1e-9 of an integer, no row is zero and no column has two
    nonzeros.  Rounded, S then has disjoint nonzero integer rows, so its
    smallest singular value is at least 1, and the rounding moves it by
    at most 1e-9 * sqrt(nnz).  Hence rank(B) >= rank(S) = rows of B.  A
    repeated row, exact or scaled, fails like any dependent row.  Costs O(nnz).
    """
    S = B.tocsr() @ prod.block_diagonal(prod.duals)
    S.sum_duplicates()
    near = np.rint(S.data)
    off = np.abs(S.data - near) > 1e-9
    if off.any():
        k = int(np.argmax(off))
        r = np.searchsorted(S.indptr, k, side="right") - 1
        raise ValueError(
            f"rank audit: entry ({r}, {S.indices[k]}) of B D is {float(S.data[k])!r}, "
            "not within 1e-9 of an integer"
        )
    S.data = near
    S.eliminate_zeros()
    empty = np.diff(S.indptr) == 0
    if empty.any():
        raise ValueError(f"rank audit: row {np.argmax(empty)} of B D is zero")
    per_column = np.bincount(S.indices, minlength=S.shape[1])
    if (per_column > 1).any():
        c = int(np.argmax(per_column > 1))
        raise ValueError(
            f"rank audit: column {c} of B D has {per_column[c]} nonzeros, "
            "so its rows are not disjoint"
        )


def build_product_space(tri: Triangulation) -> ProductSpace:
    return ProductSpace(tri)


def build_constraints(tri: Triangulation, prod: ProductSpace) -> ConstraintSystem:
    """The constraints over ``prod``'s B, gathered from its float Whitney rows by
    cell and slot on the first call, read-only, and shared by every later call.

    The vertex a at slot s of cell c gives div row a its Whitney row
    3 + s and, when a is the r-th interior vertex, rot row nv + r its
    Whitney row s, over the columns 6c..6c+5.  Every (row, column) pair
    comes from one cell and one slot, so no entries are summed.
    """
    _check_same_mesh(tri, prod)
    if prod._B is not None:
        return ConstraintSystem(prod, prod._B)
    nv, nc, cells = len(tri.vertices), len(tri.cells), tri.corners
    rot_row = np.full(nv, -1, dtype=np.intp)
    rot_row[tri.interior_vertices] = nv + np.arange(len(tri.interior_vertices))
    # axes (cell, rot/div, slot, shape index): Whitney rows 0..2 are rot, 3..5 div
    values = prod.whitney[prod.template_index].reshape(nc, 2, 3, 6)
    rows = np.stack([rot_row[cells], cells], axis=1)[:, :, :, None]
    cols = 6 * np.arange(nc)[:, None, None, None] + _SLOT
    keep = (values != 0) & (rows >= 0)
    rows, cols = np.broadcast_arrays(rows, cols)
    B = sp.coo_matrix(
        (values[keep], (rows[keep], cols[keep])),
        shape=(nv + len(tri.interior_vertices), prod.dim),
    ).tocsr()
    for part in (B.data, B.indices, B.indptr):
        part.flags.writeable = False
    prod._B = B
    return ConstraintSystem(prod, B)


def _check_same_mesh(tri: Triangulation, built, what: str = "the product space") -> None:
    """Raise ValueError unless ``built`` (its ``tri``) was built on ``tri`` itself."""
    if tri is not built.tri:
        raise ValueError(f"{what} was built on another triangulation")


CATEGORIES = (DIV_PATCH, ROT_PATCH, ROT_CELL)


class GlobalBasis:
    """Explicit basis of null(B): per-function arrays and sparse Phi.

    Function j has category ``CATEGORIES[category[j]]``, anchor vertex
    ``anchor[j]`` and support ``cells[j]``; its column of Phi is the dual
    coefficient column ``columns[j, 0]`` of cell ``cells[j, 0]`` minus
    column ``columns[j, 1]`` of cell ``cells[j, 1]`` (-1 for the
    single-cell ROT_CELL functions).  Dual columns 0..2 are mu^rot at
    slots 0..2, columns 3..5 mu^div.  The exact entries of every function
    are read from ``exact_duals``, one table per template.
    """

    def __init__(
        self,
        prod: ProductSpace,
        category: np.ndarray,
        anchor: np.ndarray,
        cells: np.ndarray,
        columns: np.ndarray,
        Phi: sp.csr_matrix,
    ):
        self.prod = prod
        self.dim = prod.dim
        self.category = category
        self.anchor = anchor
        self.cells = cells
        self.columns = columns
        self.Phi = Phi

    def __len__(self) -> int:
        return len(self.anchor)

    def exact_duals(self) -> list[list[list[tuple[int, int, int]]]]:
        """Every template's exact dual columns, as (shape index, numerator,
        denominator) of each nonzero entry in lowest terms.

        table[t][k] is dual column k of template t, its entries in shape
        index order.  One evaluation of the closed forms over
        ``prod.shapes`` in Python ints, with no Fraction.  Every closed-form
        denominator is positive (det > 0 on the counterclockwise cells), so
        each entry is a Fraction's numerator and denominator.  A function's
        column of Phi is the table column of its first cell, less that of
        its second, at rows 6 cell + shape index.
        """
        shapes = self.prod.shapes
        duals = _closed_forms(shapes, *_chebyshev_diameter(shapes)).duals
        num = _evaluate(duals, len(shapes), lambda n, m: n)
        den = _evaluate(duals, len(shapes), lambda n, m: m)
        g = np.gcd(num, den)  # entrywise over Python ints; a zero's is its denominator
        num, den = (num // g).tolist(), (den // g).tolist()
        return [
            [[(i, n[k], d[k]) for i, (n, d) in enumerate(zip(ns, ds)) if n[k]] for k in range(6)]
            for ns, ds in zip(num, den)
        ]

    def counts(self) -> dict[str, int]:
        n = np.bincount(self.category, minlength=len(CATEGORIES))
        return {name: int(k) for name, k in zip(CATEGORIES, n)}


def build_global_basis(tri: Triangulation, prod: ProductSpace) -> GlobalBasis:
    """Assemble DIV_PATCH, ROT_PATCH and ROT_CELL functions.

    The fan differences use consecutive cells of each vertex fan, so a
    vertex of degree d contributes d-1 functions per applicable family;
    they are the adjacent pairs of ``tri.fan_cells`` that lie in one fan,
    taken by slicing.  Every (cell, boundary-vertex) incidence
    contributes one single-cell ROT_CELL function.  All vectors satisfy
    B v = 0 exactly by biorthogonality of the dual forms.  Phi is
    gathered from the float dual columns ``prod.duals`` with index
    arithmetic; its columns are ordered DIV_PATCH (by vertex, then along
    the fan), ROT_PATCH (interior vertices) and ROT_CELL (by cell, then
    slot).
    """
    _check_same_mesh(tri, prod)
    nv, cells = len(tri.vertices), tri.corners
    owner = np.repeat(np.arange(nv), np.diff(tri.fan_start))
    # fan positions j with j + 1 in the same fan, DIV_PATCH then ROT_PATCH
    div = np.flatnonzero(owner[1:] == owner[:-1])
    boundary = np.ones(nv, dtype=bool)
    boundary[tri.interior_vertices] = False
    pair = np.concatenate([div, div[~boundary[owner[div]]]])
    cell_of, slot_of = np.nonzero(boundary[cells])
    n_div, n_rot, n_cell = len(div), len(pair) - len(div), len(cell_of)

    category = np.repeat(np.arange(3), [n_div, n_rot, n_cell])
    anchor = np.concatenate([owner[pair], cells[cell_of, slot_of]])
    support = np.full((len(anchor), 2), -1, dtype=np.intp)
    support[: n_div + n_rot, 0] = tri.fan_cells[pair]
    support[: n_div + n_rot, 1] = tri.fan_cells[pair + 1]
    support[n_div + n_rot :, 0] = cell_of
    present = support >= 0
    cell = np.maximum(support, 0)
    # dual column: the anchor's slot in the cell, shifted by 3 for mu^div
    shift = np.where(category == 0, 3, 0)[:, None]
    slots = np.argmax(cells[cell] == anchor[:, None, None], axis=2)
    columns = np.where(present, shift + slots, -1)

    tix = prod.template_index[cell]
    col = np.maximum(columns, 0)
    # (function, first/second cell, shape index): entries in the exact order
    gathered = prod.duals[tix, :, col]
    values = np.array([1.0, -1.0])[:, None] * gathered
    keep = (gathered != 0) & present[:, :, None]
    rows = 6 * cell[:, :, None] + _SLOT
    fn = np.broadcast_to(np.arange(len(anchor))[:, None, None], keep.shape)
    Phi = sp.coo_matrix(
        (values[keep], (rows[keep], fn[keep])), shape=(prod.dim, len(anchor))
    ).tocsr()
    return GlobalBasis(prod, category, anchor, support, columns, Phi)


def global_interpolate(
    mu: FormCallback, tri: Triangulation, prod: ProductSpace, quad_order: int = 6
) -> np.ndarray:
    """Cellwise interpolation onto the broken space, as one sparse product.

    A template's table is its Green rows at the nodes (``tables``) times
    its transposed inverse DOF matrix, so a cell's coefficients are its
    node values applied to its template's table.  The node values are
    ``prod.node_values(mu, quad_order)``: evaluated on the first call for
    this (mu, quad_order) and shared with ``error_norms`` of the same field.
    """
    _check_same_mesh(tri, prod)
    rows = prod.tables(quad_order)["rows"].reshape(len(prod.templates), -1, 6)
    table = (rows @ prod.minv.transpose(0, 2, 1)).reshape(-1, 6)
    values = prod.node_values(mu, quad_order).reshape(len(tri.cells), -1)
    return (prod.by_template(values) @ table).ravel()

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
barycentric coordinates (``Simplex.hat_coefficients``) as test forms.

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
translation) share one cached template: the DOF matrix, Whitney matrix,
dual coefficients and cell Gram are computed once per congruence class,
which collapses the structured meshes to a handful of exact
computations.  On an unstructured mesh every cell is its own class, so
this exact work builds no form at all: the cached reference element of
the planar 1-form element (``element.reference_element``) holds the
shape, DOF test and hat test forms without their per-cell scalings,
and one ``ReferenceElement.pair`` per template gives the DOF matrix,
the Whitney rows and the cell Gram <d u, d v> + <delta u, delta v> +
<u, v> from one ``integer_moments`` call, one integer contraction and
the exact scalings in Python ints.  The duals are one fraction-free
elimination of the integer Whitney rows.

Set-up costs cells plus templates.  The template key of a cell is its
centered vertex tuple; cells are sorted into classes by the same tuple
in lowest integer terms, computed for all cells at once from each
cell's exact integer coordinates, and only the first cell of a class
gets an exact Simplex.  ``ProductSpace`` holds the one cell-to-template
map (a template list and each cell's template index) and the one float
view of the templates: ``CellTemplate`` keeps only exact data, and each
float array is stacked once over the templates.  The node tables of all
templates are one ``ReferenceElement.tables`` of the stacked vertices
and float scalings per quadrature order, and the float tables that the
load vector, the error norms and the interpolation derive from them are
cached per order too (``ProductSpace.derived``).  B and Phi read the
same stacked 6x6 data: B gathers the float Whitney rows, and Phi the
float dual coefficients, by template index, cell and slot.  The kernel
basis is held as per-function arrays (category, anchor, support cells,
dual columns); the exact BasisFunctions (``functions``) are generated
one at a time when read, e.g. for the ``basis`` dump.  The rank audit is one
O(nnz) certificate from the same duals: with D = blockdiag(duals) over
the cells, B D is a 0/1 selection matrix whose disjoint rows prove that
B has full row rank, which the saddle-point oracle needs.  It runs once
per ``ConstraintSystem``.  Input without that structure, a repeated or
dependent row included, raises; there is no dense fallback.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .element import (
    DOFS,
    GRAM,
    HATS,
    DofMatrix,
    FormCallback,
    node_values,
    quadrature_rows,
    reference_element,
)
from .mesh import Triangulation
from .simplices import Simplex, as_fractions, solve_rational

__all__ = [
    "DIV_PATCH",
    "ROT_PATCH",
    "ROT_CELL",
    "CATEGORIES",
    "CellTemplate",
    "ProductSpace",
    "ConstraintSystem",
    "GlobalBasis",
    "BasisFunction",
    "build_product_space",
    "build_constraints",
    "build_global_basis",
    "global_interpolate",
]

_SLOT = np.arange(6)

DIV_PATCH = "DIV_PATCH"
ROT_PATCH = "ROT_PATCH"
ROT_CELL = "ROT_CELL"


class CellTemplate:
    """Per-congruence-class exact element data (translation invariant); no floats.

    One ``ReferenceElement.pair`` of the planar element gives the DOF
    matrix, the Whitney functional rows (rot slot 0..2, eta = hat dx^12,
    then div slot 0..2, tau = hat) and the graph-norm Gram <d u, d v> +
    <delta u, delta v> + <u, v>; no PolyForm is built.  The duals solve
    whitney . duals = I on the integer Whitney rows.
    """

    __slots__ = ("key", "simplex", "matrix", "whitney", "duals", "gram")

    def __init__(self, key, simplex: Simplex):
        self.key = key
        self.simplex = simplex
        ref = reference_element(2, 1)
        scaling, out = ref.pair(simplex, (GRAM, DOFS, HATS))
        self.matrix = DofMatrix(ref, simplex, scaling, as_fractions(*out[DOFS]))
        self.gram = as_fractions(*out[GRAM])
        rows, den = out[HATS]
        self.whitney = as_fractions(rows, den)
        # (rows / den) X = I, so rows X = den I: column j holds the dual coeffs
        self.duals = solve_rational(rows, [[den * (r == c) for c in range(6)] for r in range(6)])


class ProductSpace:
    """Cell-major broken space: coefficients [6*cell : 6*cell + 6] per cell.

    Cells are grouped into congruence classes in one integer pass over
    their exact scaled coordinates (``Triangulation.scaled_points``): with
    den a cell's common denominator, its centered coordinates are the
    integer 6-tuple 3*den*(vertex - barycenter) over 3*den, and this
    fraction in lowest terms is equal for two cells exactly when their
    centered coordinates are.  Only the first cell of each class gets an
    exact Simplex and a CellTemplate, keyed by its centered coordinates.
    Barycenters are the exact ones rounded once to float.

    The one cell-to-template map: ``templates`` lists the classes in
    order of their first cell, and ``template_index[c]`` is the class of
    cell c.  The space holds the one float view of the exact templates,
    stacked over them: ``gram``, ``whitney``, ``duals``, the inverse DOF
    matrix ``minv``, the centered ``vertices``, the ``volumes``, the
    scalings ``shape_scale`` (S) and ``test_scale`` (the diagonal of E)
    and ``tables(order)``.
    """

    def __init__(self, tri: Triangulation):
        self.tri = tri
        nc = len(tri.cells)
        num, den = tri.scaled_points(np.array(tri.cells, dtype=np.intp).reshape(nc, 3))
        sums = num.sum(axis=1)  # 3 * den * barycenter
        # Python int division rounds each exact quotient once, as float(Fraction)
        self.barycenters = np.asarray(sums / (3 * den[:, None]), dtype=float).reshape(nc, 2)
        shapes = np.column_stack([3 * den, (3 * num - sums[:, None, :]).reshape(nc, 6)])
        reduced = shapes // np.gcd.reduce(shapes, axis=1)[:, None]
        classes: dict[tuple, list[int]] = {}
        for c, shape in enumerate(map(tuple, reduced.tolist())):
            classes.setdefault(shape, []).append(c)
        self.templates: list[CellTemplate] = []
        self.template_index = np.empty(nc, dtype=np.intp)
        for i, cells in enumerate(classes.values()):
            simplex = tri.simplex(cells[0])
            self.templates.append(CellTemplate(tuple(simplex.centered), simplex))
            self.template_index[cells] = i
        # the float view: each exact entry rounded once, float(Fraction)
        exact = [
            (t.gram, t.whitney, t.duals, t.matrix.exact, t.simplex.centered) for t in self.templates
        ]
        self.gram, self.whitney, self.duals, matrix, self.vertices = (
            np.array(stack, dtype=float) for stack in zip(*exact)
        )
        self.minv = np.linalg.inv(matrix)
        self.volumes = np.array([float(t.simplex.volume) for t in self.templates])
        self.shape_scale, self.test_scale = (
            np.array(stack) for stack in zip(*(t.matrix.scaling.floats() for t in self.templates))
        )
        self._tables: dict[int, dict[str, np.ndarray]] = {}
        self._derived: dict[tuple, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return 6 * len(self.tri.cells)

    def template(self, cell: int) -> CellTemplate:
        return self.templates[self.template_index[cell]]

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

    def derived(self, build, order: int) -> np.ndarray:
        """``build(self, order)``, a float table derived from ``tables(order)``,
        cached per (build, order)."""
        table = self._derived.get((build, order))
        if table is None:
            table = self._derived[build, order] = build(self, order)
        return table

    def nodes(self, order: int) -> np.ndarray:
        """The quadrature nodes of every cell, shape (cells, nq, 2), in global coordinates."""
        return self.barycenters[:, None, :] + self.tables(order)["centered"][self.template_index]

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


class ConstraintSystem:
    """Sparse constraint matrix B: div rows for every vertex, then rot rows.

    With nv vertices, row v < nv is the div functional of vertex v and row
    nv + r the rot functional of ``tri.interior_vertices[r]``.  ``B_div``
    and ``B_rot`` are these two row slices of B.  ``prod`` is the product
    space whose template duals certify the rank; the certificate runs on
    first need and keeps only its outcome, so B must not change after that.
    """

    def __init__(self, prod: ProductSpace, B: sp.csr_matrix):
        self.prod = prod
        self.tri = prod.tri
        self.B = B
        self._certified = False

    @property
    def B_div(self) -> sp.csr_matrix:
        return self.B[: len(self.tri.vertices)]

    @property
    def B_rot(self) -> sp.csr_matrix:
        return self.B[len(self.tri.vertices) :]

    @property
    def rows(self) -> int:
        return self.B.shape[0]

    def rank(self) -> int:
        """Rank of B, which is ``rows``: certified in O(nnz) on the first call."""
        if not self._certified:
            _rank_certificate(self.B, self.prod)
            self._certified = True
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
    """Gather B from the float Whitney rows of ``prod`` by cell and slot.

    The vertex a at slot s of cell c gives div row a its Whitney row
    3 + s and, when a is the r-th interior vertex, rot row nv + r its
    Whitney row s, over the columns 6c..6c+5.  Every (row, column) pair
    comes from one cell and one slot, so no entries are summed.
    """
    _check_same_mesh(tri, prod)
    nv, nc = len(tri.vertices), len(tri.cells)
    cells = np.array(tri.cells, dtype=np.intp).reshape(nc, 3)
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
    return ConstraintSystem(prod, B)


def _check_same_mesh(tri: Triangulation, prod: ProductSpace) -> None:
    """Raise ValueError unless ``prod`` was built on ``tri`` itself."""
    if tri is not prod.tri:
        raise ValueError("the product space was built on another triangulation")


@dataclass
class BasisFunction:
    """One member of the explicit kernel basis (support of one or two cells)."""

    category: str
    anchor: int
    cells: tuple[int, ...]
    entries: list[tuple[int, Fraction]] = field(repr=False)

    @property
    def support_size(self) -> int:
        return len(self.cells)


CATEGORIES = (DIV_PATCH, ROT_PATCH, ROT_CELL)


class GlobalBasis:
    """Explicit basis of null(B): per-function arrays and sparse Phi.

    Function j has category ``CATEGORIES[category[j]]``, anchor vertex
    ``anchor[j]`` and support ``cells[j]``; its column of Phi is the dual
    coefficient column ``columns[j, 0]`` of cell ``cells[j, 0]`` minus
    column ``columns[j, 1]`` of cell ``cells[j, 1]`` (-1 for the
    single-cell ROT_CELL functions).  Dual columns 0..2 are mu^rot at
    slots 0..2, columns 3..5 mu^div.  ``functions`` streams the exact
    BasisFunctions, one at a time.
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

    @property
    def functions(self) -> Iterator[BasisFunction]:
        """Exact BasisFunctions in column order, entries (index, Fraction) in Phi's order.

        A fresh generator on every read: one function exists at a time
        unless the caller keeps them.
        """

        def entries(cell: int, col: int) -> list[tuple[int, Fraction]]:
            duals = self.prod.template(cell).duals
            return [(6 * cell + i, duals[i][col]) for i in range(6) if duals[i][col] != 0]

        for cat, a, (c0, c1), (k0, k1) in zip(
            self.category.tolist(), self.anchor.tolist(), self.cells.tolist(), self.columns.tolist()
        ):
            if c1 < 0:
                yield BasisFunction(CATEGORIES[cat], a, (c0,), entries(c0, k0))
            else:
                minus = [(idx, -v) for idx, v in entries(c1, k1)]
                yield BasisFunction(CATEGORIES[cat], a, (c0, c1), entries(c0, k0) + minus)

    def counts(self) -> dict[str, int]:
        n = np.bincount(self.category, minlength=len(CATEGORIES))
        return {name: int(k) for name, k in zip(CATEGORIES, n)}

    def count_for_vertex(self, category: str, vertex: int) -> int:
        code = CATEGORIES.index(category)
        return int(np.count_nonzero((self.category == code) & (self.anchor == vertex)))


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
    nv, nc = len(tri.vertices), len(tri.cells)
    cells = np.array(tri.cells, dtype=np.intp).reshape(nc, 3)
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

    The callback must provide value, d and delta (Green sign).  A
    template's table is its ``quadrature_rows`` times the transposed
    inverse DOF matrix, so a cell's coefficients are its ``node_values``
    applied to its template's table.
    """
    if mu.d is None or mu.delta is None:
        raise ValueError("global interpolation needs d and delta callback data")
    _check_same_mesh(tri, prod)
    table = prod.derived(_interpolation_table, quad_order)
    values = node_values(mu, prod.nodes(quad_order)).reshape(len(tri.cells), -1)
    return (prod.by_template(values) @ table).ravel()


def _interpolation_table(prod: ProductSpace, order: int) -> np.ndarray:
    """Each template's ``quadrature_rows`` times its transposed inverse DOF
    matrix, (templates * nodes * 4, 6)."""
    rows = quadrature_rows(prod.tables(order)).reshape(len(prod.templates), -1, 6)
    return (rows @ prod.minv.transpose(0, 2, 1)).reshape(-1, 6)

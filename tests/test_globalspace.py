"""Product space, vertex constraints and the explicit kernel basis."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgefem.element import (
    FormCallback,
    interpolate_coeffs,
    local_element,
)
from hodgefem.fields import as_callback, get_field
from hodgefem.forms import PolyForm
import hodgefem.element
import hodgefem.globalspace
import hodgefem.simplices
from hodgefem.mesh import (
    CRISSCROSS,
    DIAGONAL,
    Triangulation,
    generate_jittered_mesh,
    generate_square_mesh,
)
from hodgefem.globalspace import (
    CATEGORIES,
    DIV_PATCH,
    ROT_CELL,
    ROT_PATCH,
    ConstraintSystem,
    build_constraints,
    build_global_basis,
    build_product_space,
    global_interpolate,
)
from hodgefem.solver import assemble

from conftest import MESHES


def _setup(m, pattern=DIAGONAL):
    tri = generate_square_mesh(m, pattern)
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    return tri, prod, cons


def test_product_space_layout():
    tri, prod, _ = _setup(2)
    assert prod.dim == 48
    # two square orientations times two triangles each
    assert len(prod.templates) == 4
    cells_by_template = [np.flatnonzero(prod.template_index == i) for i in range(4)]
    sizes = [len(v) for v in cells_by_template]
    assert sum(sizes) == 8 and min(sizes) >= 1
    for i, (t, cells) in enumerate(zip(prod.templates, cells_by_template)):
        for c in cells:
            assert prod.template_index[c] == i
            assert prod.template(int(c)) is t

    _, prod4, _ = _setup(4)
    assert len(prod4.templates) == 4
    _, prodc, _ = _setup(2, CRISSCROSS)
    assert len(prodc.templates) == 4


def test_product_space_keys_and_barycenters_are_exact(mesh):
    prod = build_product_space(mesh)
    for c in range(len(mesh.cells)):
        s = mesh.simplex(c)
        assert prod.template(c).key == tuple(s.centered)
        assert prod.barycenters[c].tolist() == [float(x) for x in s.barycenter]


def test_congruent_cells_with_different_denominators_share_a_template():
    # a 3 x 1 strip with columns [0, 1], [1, 4/3], [4/3, 7/3]: the first
    # and last columns are congruent, over denominators 1 and 3
    xs = [Fraction(0), Fraction(1), Fraction(4, 3), Fraction(7, 3)]
    pts = [(x, Fraction(y)) for y in (0, 1) for x in xs]
    cells = []
    for i in range(3):
        cells += [(i, i + 1, i + 5), (i, i + 5, i + 4)]
    prod = build_product_space(Triangulation(pts, cells))
    assert len(prod.templates) == 4
    cells_by_template = [np.flatnonzero(prod.template_index == i).tolist() for i in range(4)]
    assert cells_by_template == [[0, 4], [1, 5], [2], [3]]


def test_product_space_builds_no_simplex_and_a_read_template_builds_one(monkeypatch):
    tri = generate_square_mesh(16)
    built = []
    init = hodgefem.simplices.Simplex.__init__

    def counting_init(self, vertices):
        built.append(1)
        init(self, vertices)

    monkeypatch.setattr(hodgefem.simplices.Simplex, "__init__", counting_init)
    prod = build_product_space(tri)
    assert len(prod.templates) == 4
    assert built == []
    for t in prod.templates:
        assert t.duals and t.key == tuple(t.simplex.centered)
        assert t.simplex is tri.simplex(t.cell)
    assert len(built) == len(prod.templates)


def test_float_stacks_round_each_exact_template_entry_once(mesh):
    prod = build_product_space(mesh)
    n = len(prod.templates)
    for name in ("gram", "whitney", "duals", "minv"):
        assert getattr(prod, name).shape == (n, 6, 6)
    assert prod.vertices.shape == (n, 3, 2)
    for i, t in enumerate(prod.templates):
        for name in ("gram", "whitney", "duals"):
            exact = getattr(t, name)
            assert getattr(prod, name)[i].tolist() == [[float(v) for v in row] for row in exact]
        assert prod.vertices[i].tolist() == [[float(x) for x in p] for p in t.simplex.centered]
        matrix = np.array([[float(v) for v in row] for row in t.matrix.exact])
        assert np.abs(prod.minv[i] @ matrix - np.eye(6)).max() <= 1e-12
    # a table of per-cell rows applies each cell's template block
    rows = np.random.default_rng(3).standard_normal((len(mesh.cells), 6))
    got = prod.by_template(rows) @ prod.gram.reshape(-1, 6)
    want = np.einsum("ci,cij->cj", rows, prod.gram[prod.template_index])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cell_gram_equals_the_per_pair_l2_inner_sums(monkeypatch):
    """Every Gram entry, both triangles, from integer products, no per-entry l2_inner."""
    calls = []
    for module in (hodgefem.simplices, hodgefem.element, hodgefem.globalspace):
        if hasattr(module, "l2_inner"):
            inner = module.l2_inner

            def counting(u, v, simplex, inner=inner):
                calls.append(1)
                return inner(u, v, simplex)

            monkeypatch.setattr(module, "l2_inner", counting)
    prod = build_product_space(MESHES["jitter4"]())
    assert len(prod.templates) == 32
    assert calls == []
    monkeypatch.undo()
    for t in prod.templates:
        space = t.matrix.space
        for i in range(6):
            for j in range(6):
                assert t.gram[i][j] == sum(
                    hodgefem.simplices.l2_inner(f[i], f[j], t.simplex)
                    for f in (space.d_basis, space.delta_basis, space.basis)
                )


def test_product_space_builds_no_exact_object_and_a_read_template_one_moment_call(monkeypatch):
    """The build makes no PolyForm, Fraction or Scaling and no ``integer_moments``
    call; reading a template's exact data makes one ``integer_moments`` call."""
    build_product_space(MESHES["jitter4"]())  # the reference element is now built
    tri = MESHES["jitter4"]()
    made, moments = [], []

    def counting(name, method):
        def wrapped(*args, **kwargs):
            made.append(name)
            return method(*args, **kwargs)

        return wrapped

    integer_moments = hodgefem.simplices.Simplex.integer_moments

    def counting_moments(self, exponents):
        moments.append(self)
        return integer_moments(self, exponents)

    # every PolyForm is made by __init__ or, bypassing it, by these operators
    for name in ("__init__", "__add__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(PolyForm, name, counting(name, getattr(PolyForm, name)))
    monkeypatch.setattr(Fraction, "__new__", counting("Fraction", Fraction.__new__))
    monkeypatch.setattr(
        hodgefem.element.Scaling, "__init__", counting("Scaling", hodgefem.element.Scaling.__init__)
    )
    monkeypatch.setattr(hodgefem.simplices.Simplex, "integer_moments", counting_moments)
    prod = build_product_space(tri)
    assert len(prod.templates) == 32
    assert made == []
    assert moments == []
    for t in prod.templates:
        assert t.gram and t.whitney and t.duals and t.matrix.exact
    monkeypatch.undo()
    assert len(moments) == len(prod.templates)
    assert [id(s) for s in moments] == [id(t.simplex) for t in prod.templates]


def _built_with_h(tri):
    """The product space of ``tri`` and the h = p/q that ``_closed_forms`` read."""
    closed_forms = hodgefem.globalspace._closed_forms
    with mock.patch.object(hodgefem.globalspace, "_closed_forms", wraps=closed_forms) as closed:
        prod = build_product_space(tri)
    _, p, q = closed.call_args.args
    return prod, p, q


def _assert_scalings_are_the_exact_ones_rounded(tri):
    """S, the diagonal of E and h of every template against ``Scaling.floats``
    and ``Simplex.h_scale``: byte-equal floats and the same lowest terms."""
    prod, p, q = _built_with_h(tri)
    ref = hodgefem.element.reference_element(2, 1)
    for i, t in enumerate(prod.templates):
        S, E = ref.scaling(t.simplex, t.simplex.second_moments).floats()
        assert (prod.shape_scale[i].dtype, prod.shape_scale[i].shape) == (S.dtype, S.shape)
        assert prod.shape_scale[i].tobytes() == S.tobytes()
        assert (prod.test_scale[i].dtype, prod.test_scale[i].shape) == (E.dtype, E.shape)
        assert prod.test_scale[i].tobytes() == E.tobytes()
        h = t.simplex.h_scale
        assert (p[i], q[i]) == (h.numerator, h.denominator)


_SCALING_MESHES = {**MESHES, "crisscross3": lambda: generate_square_mesh(3, CRISSCROSS)}


@pytest.mark.parametrize("name", sorted(_SCALING_MESHES))
def test_scalings_and_h_are_the_exact_ones_rounded_once(name):
    _assert_scalings_are_the_exact_ones_rounded(_SCALING_MESHES[name]())


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_scalings_and_h_of_jittered_meshes_are_the_exact_ones_rounded_once(m, seed):
    _assert_scalings_are_the_exact_ones_rounded(generate_jittered_mesh(m, seed))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_jittered_meshes_have_exact_duals_and_the_full_basis(m, seed):
    tri = generate_jittered_mesh(m, seed)
    prod = build_product_space(tri)
    eye = [[Fraction(int(r == c)) for c in range(6)] for r in range(6)]
    for t in prod.templates:
        product = [
            [sum((w * d for w, d in zip(row, col)), Fraction(0)) for col in zip(*t.duals)]
            for row in t.whitney
        ]
        assert product == eye
    cons = build_constraints(tri, prod)
    assert cons.rank() == cons.rows
    assert len(build_global_basis(tri, prod)) == 6 * len(tri.cells) - cons.rows


def test_the_build_reads_no_exact_template_data_and_a_template_builds_it_once(monkeypatch):
    """No ``ReferenceElement.pair`` while building; a template's exact data on first read."""
    pairs = []
    pair = hodgefem.element.ReferenceElement.pair

    def counting(self, simplex, groups=(hodgefem.element.DOFS,)):
        pairs.append(simplex)
        return pair(self, simplex, groups)

    monkeypatch.setattr(hodgefem.element.ReferenceElement, "pair", counting)
    tri = MESHES["jitter4"]()
    prod = build_product_space(tri)
    build_global_basis(tri, prod)
    build_constraints(tri, prod).rank()
    assert pairs == []
    t = prod.template(5)
    duals = t.duals
    assert pairs == [t.simplex]
    assert t.duals is duals and t.gram and t.whitney and t.matrix.exact
    assert pairs == [t.simplex]
    prod.template(6).whitney
    assert pairs == [t.simplex, prod.template(6).simplex]


def _exact_nonzeros_of_B(tri, prod) -> int:
    """nnz of B from the exact Whitney rows: div row 3 + s of every cell slot,
    rot row s of the slots of interior vertices."""
    interior = set(tri.interior_vertices)
    count = 0
    for c, cell in enumerate(tri.cells):
        whitney = prod.template(c).whitney
        for s, a in enumerate(cell):
            rows = [3 + s, s] if a in interior else [3 + s]
            count += sum(v != 0 for r in rows for v in whitney[r])
    return count


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    case=st.one_of(
        st.sampled_from(sorted(MESHES)),
        st.tuples(st.integers(2, 6), st.integers(0, 2**32 - 1)),
    )
)
def test_float_view_is_the_exact_template_data_rounded_once(case):
    """Whitney and dual zero patterns, every float stack and the nnz of B and Phi
    are those of the exact data, on the fixture meshes and on jittered meshes."""
    tri = MESHES[case]() if isinstance(case, str) else generate_jittered_mesh(*case)
    prod = build_product_space(tri)
    for i, t in enumerate(prod.templates):
        for name in ("whitney", "duals"):
            exact = getattr(t, name)
            floats = getattr(prod, name)[i]
            assert (floats == 0).tolist() == [[v == 0 for v in row] for row in exact]
        for name in ("gram", "whitney", "duals"):
            exact = getattr(t, name)
            assert getattr(prod, name)[i].tolist() == [[float(v) for v in row] for row in exact]
        assert prod.volumes[i] == float(t.simplex.volume)
    matrices = np.array([t.matrix.as_float for t in prod.templates])
    assert np.array_equal(prod.minv, np.linalg.inv(matrices))
    basis = build_global_basis(tri, prod)
    assert basis.Phi.nnz == sum(len(fn.entries) for fn in basis.functions)
    assert build_constraints(tri, prod).B.nnz == _exact_nonzeros_of_B(tri, prod)


_IDENTITY_MESHES = {
    **MESHES,
    "diagonal8": lambda: generate_square_mesh(8, DIAGONAL),
    "jitter8": lambda: generate_jittered_mesh(8, 11),
}


@pytest.mark.parametrize("name", sorted(_IDENTITY_MESHES))
def test_whitney_and_duals_of_the_constants_are_rotated_hat_gradients(name):
    """With |T| the area, h the ``h_scale`` and g = grad lambda_c, exactly:
    whitney(rot_c, dx1) = -|T| g_y, whitney(rot_c, dx2) = |T| g_x,
    whitney(div_c, dx1) = -|T| g_x, whitney(div_c, dx2) = -|T| g_y,
    duals(eta1, rot_c) = -6 h^2 g_y/|T| and duals(eta2, rot_c) = 6 h^2 g_x/|T|.
    |T| g is half the opposite edge rotated, so an axis-parallel edge makes
    these entries exactly 0."""
    prod = build_product_space(_IDENTITY_MESHES[name]())
    for t in prod.templates:
        area, h = t.simplex.volume, t.simplex.h_scale
        rows, den = t.simplex.hat_coefficients()
        for c, (_, gx, gy) in enumerate(rows):
            gx, gy = Fraction(gx, den), Fraction(gy, den)
            assert t.whitney[c][:2] == [-area * gy, area * gx]
            assert t.whitney[3 + c][:2] == [-area * gx, -area * gy]
            assert [t.duals[4][c], t.duals[5][c]] == [-6 * h * h * gy / area, 6 * h * h * gx / area]


def test_vectorised_phi_matches_exact_functions(mesh):
    prod = build_product_space(mesh)
    basis = build_global_basis(mesh, prod)
    dense = np.zeros(basis.Phi.shape)
    for j, fn in enumerate(basis.functions):
        for idx, val in fn.entries:
            dense[idx, j] = float(val)
    assert np.array_equal(basis.Phi.toarray(), dense)
    assert basis.Phi.nnz == sum(len(fn.entries) for fn in basis.functions)
    for j, fn in enumerate(basis.functions):
        assert (fn.category, fn.anchor) == (
            CATEGORIES[basis.category[j]],
            basis.anchor[j],
        )
        assert fn.cells == tuple(c for c in basis.cells[j] if c >= 0)


def test_constraint_shape_and_rank_smallest_mesh():
    tri, prod, cons = _setup(2)
    assert cons.B_div.shape == (9, 48)
    assert cons.B_rot.shape == (1, 48)
    assert cons.rows == 10
    assert cons.rank() == 10
    assert cons.nullity() == 38


def test_rank_does_not_count_duplicated_rows():
    """B with its div rows stacked twice (803 rows on diagonal m = 16) is refused."""
    tri, prod, cons = _setup(16)
    doubled = ConstraintSystem(prod, sp.vstack([cons.B, cons.B_div]).tocsr())
    assert doubled.rows == 803
    assert cons.rank() == 514
    with pytest.raises(ValueError, match=r"^rank audit: column \d+ of B D has 2 nonzeros"):
        doubled.rank()


@pytest.mark.parametrize(
    "build", ["build_constraints", "build_global_basis", "global_interpolate", "assemble"]
)
def test_a_product_space_of_another_triangulation_is_rejected(build):
    # the same jittered mesh with its cells in reverse order: B would pass
    # the rank certificate and the basis would have the right size, both wrong
    tri = MESHES["jitter4"]()
    prod = build_product_space(tri)
    field = get_field("polyflow")
    calls = {
        "build_constraints": lambda t: build_constraints(t, prod),
        "build_global_basis": lambda t: build_global_basis(t, prod),
        "global_interpolate": lambda t: global_interpolate(as_callback(field), t, prod),
        "assemble": lambda t: assemble(t, field, prod=prod),
    }
    calls[build](tri)
    with pytest.raises(ValueError, match="^the product space was built on another triangulation"):
        calls[build](Triangulation(tri.vertices, tri.cells[::-1]))


def _dense_rank(B) -> int:
    """Reference rank: eigenvalues of the dense Gram B B^T, cut at rows * eps * max."""
    return int(np.linalg.matrix_rank((B @ B.T).toarray(), hermitian=True))


_RANK_MESHES = {
    **MESHES,
    "diagonal2": lambda: generate_square_mesh(2, DIAGONAL),
    "diagonal3": lambda: generate_square_mesh(3, DIAGONAL),
    "crisscross3": lambda: generate_square_mesh(3, CRISSCROSS),
}


@pytest.mark.parametrize("name", sorted(_RANK_MESHES))
def test_rank_certificate_equals_the_dense_gram_rank(name):
    tri = _RANK_MESHES[name]()
    cons = build_constraints(tri, build_product_space(tri))
    assert cons.rank() == _dense_rank(cons.B)


def test_rank_audit_raises_on_a_dependent_row_that_is_no_duplicate():
    tri, prod, cons = _setup(4)
    B = cons.B.tolil()
    B[5] = cons.B[3] + cons.B[4]
    dependent = ConstraintSystem(prod, B.tocsr())
    assert _dense_rank(dependent.B) == cons.rows - 1
    with pytest.raises(ValueError, match=r"^rank audit: column \d+ of B D has 2 nonzeros"):
        dependent.rank()


def test_the_product_space_owns_one_read_only_b_certified_once(monkeypatch):
    tri = MESHES["jitter4"]()
    prod = build_product_space(tri)
    first, second = build_constraints(tri, prod), build_constraints(tri, prod)
    assert first is not second and first.B is second.B
    seen = []
    certificate = hodgefem.globalspace._rank_certificate
    monkeypatch.setattr(
        hodgefem.globalspace, "_rank_certificate", lambda B, p: seen.append(B) or certificate(B, p)
    )
    assert first.rank() == second.rank() == first.rows
    assert second.nullity() == prod.dim - first.rows
    assert len(seen) == 1
    # the certificate's outcome is keyed on B's identity, so B takes no in-place edit
    for part in (first.B.data, first.B.indices, first.B.indptr):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = part[1]
    with pytest.raises(ValueError, match="read-only"):
        first.B.data *= 2
    # an equal copy is another B: writeable, and certified on its own
    copy = ConstraintSystem(prod, first.B.copy())
    assert copy.rank() == copy.rank() == first.rows
    assert len(seen) == 2 and seen[1] is copy.B
    copy.B.data[0] *= 1


def test_rank_audit_raises_on_an_entry_off_by_one_part_in_a_million():
    tri, prod, cons = _setup(4)
    B = cons.B.copy()
    B.data[7] *= 1 + 1e-6
    with pytest.raises(ValueError, match=r"^rank audit: entry \(1, \d+\) of B D .* integer"):
        ConstraintSystem(prod, B).rank()


@pytest.mark.parametrize(
    "name, dim_z", [("coprime4", 31), ("crisscross2", 15), ("diagonal4", 31), ("jitter4", 31)]
)
def test_cellwise_constants_in_the_kernel_have_dimension_cells_minus_one(name, dim_z):
    """Z = null(B) restricted to shape slots 0 and 1, the cellwise constants.

    B's columns for those slots come from each template's exact Whitney
    rows (div row of vertex a: row 3 + s, rot row of interior a: row s,
    for a at slot s), and their rank is taken by sympy over the rationals.
    """
    tri = MESHES[name]()
    prod = build_product_space(tri)
    nv, nc = len(tri.vertices), len(tri.cells)
    rot_row = {a: nv + r for r, a in enumerate(tri.interior_vertices)}
    Bz = sympy.zeros(nv + len(rot_row), 2 * nc)
    for c, cell in enumerate(tri.cells):
        whitney = prod.template(c).whitney
        for s, a in enumerate(cell):
            for j in (0, 1):
                Bz[a, 2 * c + j] = sympy.Rational(whitney[3 + s][j])
                if a in rot_row:
                    Bz[rot_row[a], 2 * c + j] = sympy.Rational(whitney[s][j])
    rank = Bz.rank()
    assert rank == nc + 1
    assert 2 * nc - rank == dim_z == nc - 1


def test_basis_counts_smallest_mesh():
    tri, prod, cons = _setup(2)
    basis = build_global_basis(tri, prod)
    assert len(basis) == cons.nullity() == 38
    assert basis.counts() == {DIV_PATCH: 15, ROT_PATCH: 7, ROT_CELL: 16}

    # counts follow from the mesh combinatorics alone
    degrees = np.diff(tri.fan_start).tolist()
    interior = set(tri.interior_vertices)
    assert basis.counts()[DIV_PATCH] == sum(d - 1 for d in degrees)
    assert basis.counts()[ROT_PATCH] == sum(
        degrees[v] - 1 for v in interior
    )
    boundary_incidences = sum(
        1 for cell in tri.cells for v in cell if v not in interior
    )
    assert basis.counts()[ROT_CELL] == boundary_incidences


@pytest.mark.parametrize(
    "m,pattern", [(2, DIAGONAL), (3, DIAGONAL), (2, CRISSCROSS)]
)
def test_dimension_formula_and_membership(m, pattern):
    tri, prod, cons = _setup(m, pattern)
    basis = build_global_basis(tri, prod)
    nv = len(tri.vertices)
    nint = len(tri.interior_vertices)
    assert cons.rank() == nv + nint
    assert len(basis) == 6 * len(tri.cells) - nv - nint
    residual = np.abs(cons.B @ basis.Phi).max()
    assert residual <= 1e-12
    # the columns are linearly independent
    s = np.linalg.svd(basis.Phi.toarray(), compute_uv=False)
    assert s[len(basis) - 1] > 1e-8


def test_crisscross_basis_count():
    tri, prod, cons = _setup(2, CRISSCROSS)
    basis = build_global_basis(tri, prod)
    assert len(basis) == 78


def test_supports_and_anchored_counts():
    tri, prod, cons = _setup(4)
    basis = build_global_basis(tri, prod)
    interior = set(tri.interior_vertices)
    for fn in basis.functions:
        assert fn.support_size in (1, 2)
        if fn.category == ROT_CELL:
            assert fn.support_size == 1
            assert fn.anchor not in interior
        else:
            assert fn.support_size == 2
        blocks = {idx // 6 for idx, _ in fn.entries}
        assert blocks <= set(fn.cells)
    # vertex 12 sits mid-mesh with the plain degree-6 star
    assert tri.fan_start[13] - tri.fan_start[12] == 6
    assert basis.count_for_vertex(ROT_PATCH, 12) == 5
    assert basis.count_for_vertex(DIV_PATCH, 12) == 5
    assert basis.count_for_vertex(ROT_CELL, 12) == 0


def test_dual_local_functions_are_biorthogonal():
    """whitney . duals == I exactly, on every template of the fixture meshes."""
    eye = [[Fraction(int(r == c)) for c in range(6)] for r in range(6)]
    for build in MESHES.values():
        prod = build_product_space(build())
        for t in prod.templates:
            got = [
                [sum(t.whitney[r][i] * t.duals[i][c] for i in range(6)) for c in range(6)]
                for r in range(6)
            ]
            assert got == eye


def test_affine_interpolation_reproduces_field():
    tri, prod, cons = _setup(2)
    field = get_field("affine")
    u = global_interpolate(as_callback(field), tri, prod)
    tab = prod.tables(6)
    for c in range(len(tri.cells)):
        i = prod.template_index[c]
        pts = tab["centered"][i] + prod.barycenters[c]
        uh = np.einsum("i,iqx->qx", u[6 * c : 6 * c + 6], tab["val"][i])
        assert np.abs(uh - field.value(pts)).max() <= 1e-12

    # smooth field: jump functionals vanish at interior vertices, while
    # the boundary div rows see the nonzero normal trace
    rot_rows = np.abs(cons.B_rot @ u)
    assert rot_rows.max() <= 1e-10
    div_rows = np.abs(cons.B_div @ u)
    for v in tri.interior_vertices:
        assert div_rows[v] <= 1e-10
    assert div_rows.max() > 1e-3


def test_global_matches_local_interpolation():
    # templates are shared between congruent cells, so the local element
    # must be rebuilt on the actual cell simplex for this comparison; every
    # cell of the m = 2 mesh and of the fixture meshes (jitter4: 32 templates)
    field = get_field("polyflow")
    cb = as_callback(field)
    for tri in [generate_square_mesh(2)] + [build() for build in MESHES.values()]:
        prod = build_product_space(tri)
        u = global_interpolate(cb, tri, prod, quad_order=6)
        for c in range(len(tri.cells)):
            local = interpolate_coeffs(cb, local_element(tri.simplex(c), 1), quad_order=6)
            local = np.array([float(x) for x in local])
            assert np.allclose(u[6 * c : 6 * c + 6], local, rtol=1e-9, atol=1e-12)


def test_interpolation_requires_derivative_data():
    tri, prod, _ = _setup(2)
    field = get_field("polyflow")
    with pytest.raises(ValueError, match="needs d and delta"):
        global_interpolate(FormCallback(value=field.value), tri, prod)

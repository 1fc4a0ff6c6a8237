"""Product space, vertex constraints and the explicit kernel basis."""

from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgefem.element import FormCallback, dof_values, form_values, local_element, solve_dofs
from hodgefem.fields import as_callback, get_field
from hodgefem.forms import PolyForm, Polynomial, codifferential_green, exterior_derivative
import hodgefem.element
import hodgefem.globalspace
import hodgefem.simplices
from hodgefem.cli import main
from hodgefem.mesh import (
    CRISSCROSS,
    DIAGONAL,
    Triangulation,
    generate_square_mesh,
)
from hodgefem.globalspace import (
    CATEGORIES,
    DIV_PATCH,
    ROT_CELL,
    ROT_PATCH,
    ConstraintSystem,
    RankAuditError,
    build_constraints,
    build_global_basis,
    build_product_space,
    global_interpolate,
)
from hodgefem.solver import assemble

from conftest import MESHES, closed_form_templates, generate_jittered_mesh, write_mesh
import reference
from reference import basis_functions, exact, hat_coefficients, l2_gram, shape_space, simplex


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
    for i, (first, cells) in enumerate(zip(prod.templates.tolist(), cells_by_template)):
        # a template is its class's first cell, congruent to every member
        assert first == cells[0]
        for c in cells:
            assert prod.template_index[c] == i
            assert simplex(tri, int(c)).centered == simplex(tri, first).centered

    _, prod4, _ = _setup(4)
    assert len(prod4.templates) == 4
    _, prodc, _ = _setup(2, CRISSCROSS)
    assert len(prodc.templates) == 4


def test_product_space_keys_and_barycenters_are_exact(mesh):
    prod = build_product_space(mesh)
    for c in range(len(mesh.cells)):
        s = simplex(mesh, c)
        d, *xy = prod.shapes[prod.template_index[c]].tolist()
        assert [Fraction(v, d) for v in xy] == [x for point in s.centered for x in point]
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
    basis = build_global_basis(tri, prod)
    assert sum(len(fn.entries) for fn in basis_functions(basis)) == basis.Phi.nnz
    assert len(prod.templates) == 4
    assert built == []
    # the reference builds one simplex per template, and reads the same key
    for i, t in enumerate(closed_form_templates(tri, prod)):
        d, *xy = prod.shapes[i].tolist()
        assert t.duals and [Fraction(v, d) for v in xy] == [x for p in t.simplex.centered for x in p]
        assert t.simplex.vertices == tuple(tri.vertices[v] for v in tri.cells[t.cell])
    assert len(built) == len(prod.templates)


def test_float_stacks_round_each_exact_template_entry_once(mesh):
    prod = build_product_space(mesh)
    n = len(prod.templates)
    for name in ("gram", "whitney", "duals", "minv"):
        assert getattr(prod, name).shape == (n, 6, 6)
    assert prod.vertices.shape == (n, 3, 2)
    for i, t in enumerate(closed_form_templates(mesh, prod)):
        for name in ("gram", "whitney", "duals"):
            entries = getattr(t, name)
            assert getattr(prod, name)[i].tolist() == [[float(v) for v in row] for row in entries]
        assert prod.vertices[i].tolist() == [[float(x) for x in p] for p in t.simplex.centered]
        matrix = np.array([[float(v) for v in row] for row in exact(t.matrix)])
        assert np.abs(prod.minv[i] @ matrix - np.eye(6)).max() <= 1e-12
    # a table of per-cell rows applies each cell's template block
    rows = np.random.default_rng(3).standard_normal((len(mesh.cells), 6))
    got = prod.by_template(rows) @ prod.gram.reshape(-1, 6)
    want = np.einsum("ci,cij->cj", rows, prod.gram[prod.template_index])
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_cell_gram_equals_the_per_pair_l2_products():
    """Every Gram entry, both triangles, as the sum of the entrywise L2 products
    of the scaled shape forms, their d and their Green delta."""
    tri = MESHES["jitter4"]()
    prod = build_product_space(tri)
    assert len(prod.templates) == 32
    for t in closed_form_templates(tri, prod):
        space = shape_space(t.matrix)
        for i in range(6):
            for j in range(6):
                assert t.gram[i][j] == sum(
                    l2_gram([f[i]], [f[j]], t.simplex)[0][0]
                    for f in (space.d_basis, space.delta_basis, space.basis)
                )


def test_product_space_builds_no_exact_object_and_a_read_template_one_moment_call(monkeypatch):
    """The build makes no PolyForm, Fraction or Scaling and no ``integer_moments``
    call, and reading the exact duals of the basis makes no PolyForm, Scaling or
    ``integer_moments`` call; the ``pair`` of a template's local element makes
    one ``integer_moments`` call."""
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
    basis = build_global_basis(tri, prod)
    assert all(fn.entries for fn in basis_functions(basis))
    assert set(made) == {"Fraction"}
    assert moments == []
    simplices = [simplex(tri, c) for c in prod.templates.tolist()]
    ref = hodgefem.element.reference_element(2, 1)
    for s in simplices:
        _, rows, _ = ref.pair(s)
        assert len(rows) == 6 and all(rows)
    monkeypatch.undo()
    assert len(moments) == len(prod.templates)
    assert [id(s) for s in moments] == [id(s) for s in simplices]
    closed_form_templates(tri, prod)


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
    for i, cell in enumerate(prod.templates.tolist()):
        T = simplex(tri, cell)
        S, E = ref.scaling(T, T.second_moments).floats()
        assert (prod.shape_scale[i].dtype, prod.shape_scale[i].shape) == (S.dtype, S.shape)
        assert prod.shape_scale[i].tobytes() == S.tobytes()
        assert (prod.test_scale[i].dtype, prod.test_scale[i].shape) == (E.dtype, E.shape)
        assert prod.test_scale[i].tobytes() == E.tobytes()
        h = T.h_scale
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
    for t in closed_form_templates(tri, prod):
        product = [
            [sum((w * d for w, d in zip(row, col)), Fraction(0)) for col in zip(*t.duals)]
            for row in t.whitney
        ]
        assert product == eye
    cons = build_constraints(tri, prod)
    assert cons.rank() == cons.rows
    assert len(build_global_basis(tri, prod)) == 6 * len(tri.cells) - cons.rows


def test_the_basis_dump_pairs_no_template_and_builds_no_simplex(tmp_path, monkeypatch):
    """``basis --mesh-file`` takes its exact duals from the closed forms: no
    ``ReferenceElement.pair``, exact elimination (``_bareiss``, wherever it
    is bound) or ``Simplex`` construction."""
    mesh = tmp_path / "jitter4.mesh"
    write_mesh(MESHES["jitter4"](), mesh)
    calls = []

    def counting(name, method):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        return wrapped

    element, simplices = hodgefem.element, hodgefem.simplices
    pair = element.ReferenceElement.pair
    monkeypatch.setattr(element.ReferenceElement, "pair", counting("pair", pair))
    monkeypatch.setattr(simplices.Simplex, "__init__", counting("Simplex", simplices.Simplex.__init__))
    for module in (simplices, element, reference):
        monkeypatch.setattr(module, "_bareiss", counting("eliminate", module._bareiss))
    out = tmp_path / "basis.jsonl"
    assert main(["basis", "--mesh-file", str(mesh), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 1
    assert calls == []
    # the counters are live: the reference on one template trips each of them
    tri = MESHES["jitter4"]()
    closed_form_templates(tri, build_product_space(tri))
    assert {"pair", "Simplex", "eliminate"} <= set(calls)


def _exact_nonzeros_of_B(tri, prod) -> int:
    """nnz of B from the exact Whitney rows: div row 3 + s of every cell slot,
    rot row s of the slots of interior vertices."""
    interior = set(tri.interior_vertices)
    templates = closed_form_templates(tri, prod)
    count = 0
    for c, cell in enumerate(tri.cells):
        whitney = templates[prod.template_index[c]].whitney
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
    templates = closed_form_templates(tri, prod)
    for i, t in enumerate(templates):
        for name in ("whitney", "duals"):
            exact = getattr(t, name)
            floats = getattr(prod, name)[i]
            assert (floats == 0).tolist() == [[v == 0 for v in row] for row in exact]
        for name in ("gram", "whitney", "duals"):
            entries = getattr(t, name)
            assert getattr(prod, name)[i].tolist() == [[float(v) for v in row] for row in entries]
        assert prod.volumes[i] == float(t.simplex.volume)
    matrices = np.array([t.matrix.as_float for t in templates])
    assert np.array_equal(prod.minv, np.linalg.inv(matrices))
    basis = build_global_basis(tri, prod)
    assert basis.Phi.nnz == sum(len(fn.entries) for fn in basis_functions(basis))
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
    tri = _IDENTITY_MESHES[name]()
    for t in closed_form_templates(tri, build_product_space(tri)):
        area, h = t.simplex.volume, t.simplex.h_scale
        rows, den = hat_coefficients(t.simplex)
        for c, (_, gx, gy) in enumerate(rows):
            gx, gy = Fraction(gx, den), Fraction(gy, den)
            assert t.whitney[c][:2] == [-area * gy, area * gx]
            assert t.whitney[3 + c][:2] == [-area * gx, -area * gy]
            assert [t.duals[4][c], t.duals[5][c]] == [-6 * h * h * gy / area, 6 * h * h * gx / area]


def test_vectorised_phi_matches_exact_functions(mesh):
    prod = build_product_space(mesh)
    basis = build_global_basis(mesh, prod)
    dense = np.zeros(basis.Phi.shape)
    for j, fn in enumerate(basis_functions(basis)):
        for idx, val in fn.entries:
            dense[idx, j] = float(val)
    assert np.array_equal(basis.Phi.toarray(), dense)
    assert basis.Phi.nnz == sum(len(fn.entries) for fn in basis_functions(basis))
    for j, fn in enumerate(basis_functions(basis)):
        assert (fn.category, fn.anchor) == (
            CATEGORIES[basis.category[j]],
            basis.anchor[j],
        )
        assert fn.cells == tuple(c for c in basis.cells[j] if c >= 0)


def test_constraint_shape_and_rank_smallest_mesh():
    tri, prod, cons = _setup(2)
    assert cons.B[:9].shape == (9, 48)
    assert cons.B[9:].shape == (1, 48)
    assert cons.rows == 10
    assert cons.rank() == 10
    assert cons.nullity() == 38


def test_rank_does_not_count_duplicated_rows():
    """B with its div rows stacked twice (803 rows on diagonal m = 16) is refused."""
    tri, prod, cons = _setup(16)
    doubled = sp.vstack([cons.B, cons.B[: len(tri.vertices)]]).tocsr()
    assert doubled.shape[0] == 803
    assert cons.rank() == 514
    with pytest.raises(RankAuditError, match=r"^rank audit: column \d+ of B D has 2 nonzeros"):
        ConstraintSystem(prod, doubled)


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
    dependent = B.tocsr()
    assert _dense_rank(dependent) == cons.rows - 1
    with pytest.raises(RankAuditError, match=r"^rank audit: column \d+ of B D has 2 nonzeros"):
        ConstraintSystem(prod, dependent)


def test_the_product_space_owns_one_read_only_b_certified_once(monkeypatch):
    tri = MESHES["jitter4"]()
    prod = build_product_space(tri)
    seen = []
    certificate = hodgefem.globalspace._rank_certificate
    monkeypatch.setattr(
        hodgefem.globalspace, "_rank_certificate", lambda B, p: seen.append(B) or certificate(B, p)
    )
    first, second = build_constraints(tri, prod), build_constraints(tri, prod)
    assert first is not second and first.B is second.B
    assert first.rank() == second.rank() == first.rows
    assert second.nullity() == prod.dim - first.rows
    assert len(seen) == 1 and seen[0] is first.B
    # the product space's B counts as certified by its identity, so it takes no in-place edit
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
    with pytest.raises(RankAuditError, match=r"^rank audit: entry \(1, \d+\) of B D .* integer"):
        ConstraintSystem(prod, B)


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
    templates = closed_form_templates(tri, prod)
    Bz = sympy.zeros(nv + len(rot_row), 2 * nc)
    for c, cell in enumerate(tri.cells):
        whitney = templates[prod.template_index[c]].whitney
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
    for fn in basis_functions(basis):
        assert len(fn.cells) in (1, 2)
        if fn.category == ROT_CELL:
            assert len(fn.cells) == 1
            assert fn.anchor not in interior
        else:
            assert len(fn.cells) == 2
        blocks = {idx // 6 for idx, _ in fn.entries}
        assert blocks <= set(fn.cells)
    # vertex 12 sits mid-mesh with the plain degree-6 star
    assert tri.fan_start[13] - tri.fan_start[12] == 6
    anchored = Counter(CATEGORIES[c] for c in basis.category[basis.anchor == 12])
    assert anchored == {ROT_PATCH: 5, DIV_PATCH: 5}


def test_dual_local_functions_are_biorthogonal():
    """whitney . duals == I exactly, on every template of the fixture meshes."""
    eye = [[Fraction(int(r == c)) for c in range(6)] for r in range(6)]
    for build in MESHES.values():
        tri = build()
        for t in closed_form_templates(tri, build_product_space(tri)):
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
        uh = np.einsum("i,iqx->qx", u[6 * c : 6 * c + 6], tab["shape"][i][..., :2])
        assert np.abs(uh - field.value(pts)).max() <= 1e-12

    # smooth field: jump functionals vanish at interior vertices, while
    # the boundary div rows see the nonzero normal trace
    rot_rows = np.abs(cons.B[len(tri.vertices) :] @ u)
    assert rot_rows.max() <= 1e-10
    div_rows = np.abs(cons.B[: len(tri.vertices)] @ u)
    for v in tri.interior_vertices:
        assert div_rows[v] <= 1e-10
    assert div_rows.max() > 1e-3


def _shifted(p: Polynomial, b) -> Polynomial:
    """p(b + x): a polynomial in global coordinates, centered at the point b, exactly."""
    xs = [Polynomial.variable(2, j + 1) + Polynomial.constant(2, b[j]) for j in range(2)]
    out = Polynomial(2)
    for e, c in p.terms.items():
        term = Polynomial.constant(2, c)
        for x, power in zip(xs, e):
            for _ in range(power):
                term = term * x
        out = out + term
    return out


@pytest.mark.parametrize("name", ["diagonal4", "jitter4"])
def test_global_matches_the_exact_local_interpolation(name):
    """global_interpolate of a quadratic field's callback against its exact
    interpolant on every cell: the field shifted exactly to the cell's
    barycenter, its Fraction DOFs solved in Fractions."""
    F = Fraction
    u = PolyForm(
        2,
        1,
        {
            (1,): Polynomial(2, {(2, 0): F(3), (1, 1): F(-2), (0, 2): F(1), (1, 0): F(1), (0, 0): F(-1)}),
            (2,): Polynomial(2, {(2, 0): F(1), (1, 1): F(4), (0, 2): F(-2), (0, 1): F(3), (0, 0): F(2)}),
        },
    )
    du, gu = exterior_derivative(u), codifferential_green(u)
    assert not du.is_zero() and not gu.is_zero()  # nonzero rot and div
    cb = FormCallback(
        value=lambda x: form_values(u, x),
        d=lambda x: form_values(du, x),
        delta=lambda x: form_values(gu, x),
    )
    tri = MESHES[name]()
    got = global_interpolate(cb, tri, build_product_space(tri), quad_order=6)
    want = []
    for c in range(len(tri.cells)):
        T = simplex(tri, c)
        local = PolyForm(2, 1, {a: _shifted(p, T.barycenter) for a, p in u.comps.items()})
        matrix = local_element(T, 1)
        want += solve_dofs(dof_values(local, matrix), matrix)
    want = np.array([float(x) for x in want])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_interpolation_requires_derivative_data():
    """A callback without d and delta cannot be built, so no interpolation
    meets one."""
    field = get_field("polyflow")
    with pytest.raises(TypeError, match="missing 2 required positional arguments: 'd' and 'delta'"):
        FormCallback(value=field.value)

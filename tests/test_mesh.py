"""Triangulation validation, square-mesh generators, mesh IO, hat functions."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgefem.forms import PolyForm, codifferential_green, exterior_derivative
from hodgefem.globalspace import build_constraints, build_product_space
from hodgefem.mesh import (
    CRISSCROSS,
    DIAGONAL,
    Triangulation,
    format_mesh,
    generate_jittered_mesh,
    generate_square_mesh,
    parse_mesh,
    read_mesh,
    write_mesh,
)

from conftest import _coprime


def fans(tri):
    """Each vertex's fan of cells, in fan order."""
    start, cells = tri.fan_start.tolist(), tri.fan_cells.tolist()
    return [cells[a:b] for a, b in zip(start, start[1:])]


def test_generator_counts():
    tri = generate_square_mesh(2, DIAGONAL)
    assert len(tri.vertices) == 9
    assert len(tri.cells) == 8
    assert len(tri.edges) == 16
    assert tri.interior_vertices == [4]
    assert tri.euler_characteristic == 1
    assert tri.warnings == []

    tri4 = generate_square_mesh(4, DIAGONAL)
    assert len(tri4.vertices) == 25
    assert len(tri4.cells) == 32
    assert len(tri4.interior_vertices) == 9

    cc = generate_square_mesh(3, CRISSCROSS)
    assert len(cc.vertices) == 16 + 9
    assert len(cc.cells) == 36
    assert cc.euler_characteristic == 1


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError, match="must be an integer >= 2"):
        generate_square_mesh(1)
    with pytest.raises(ValueError, match="unknown mesh pattern"):
        generate_square_mesh(2, "union_jack")


def test_mesh_size_halves_under_refinement():
    h2 = generate_square_mesh(2).h
    h4 = generate_square_mesh(4).h
    assert h4 == pytest.approx(h2 / 2, rel=1e-12)


def test_vertex_degrees_on_diagonal_mesh():
    # the generator flips two corner squares, which pushes the center
    # vertex of the 2x2 mesh up to degree 8
    tri = generate_square_mesh(2, DIAGONAL)
    assert len(fans(tri)[4]) == 8
    # away from the flipped corners the interior degree is the usual 6
    tri4 = generate_square_mesh(4, DIAGONAL)
    assert len(fans(tri4)[12]) == 6
    assert 12 in tri4.interior_vertices


def test_patch_fan_is_edge_connected():
    tri = generate_square_mesh(4, DIAGONAL)
    for v, fan in enumerate(fans(tri)):
        assert sorted(fan) == sorted(set(fan))
        for a, b in zip(fan, fan[1:]):
            shared = set(tri.cells[a]) & set(tri.cells[b])
            assert v in shared and len(shared) == 2


def test_orientation_is_normalized():
    # clockwise input comes out counterclockwise
    tri = Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])
    a, b, c = (tri.vertices[v] for v in tri.cells[0])
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    assert area2 > 0
    assert tri.simplex(0).volume == Fraction(1, 2)
    assert "mesh has no interior vertices" in tri.warnings


def test_validation_rejects_broken_input():
    with pytest.raises(ValueError, match="vertex 2 duplicates vertex 0"):
        Triangulation([(0, 0), (1, 0), (0, 0)], [(0, 1, 2)])
    with pytest.raises(ValueError, match="cell 1 duplicates cell 0"):
        Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ValueError, match="three distinct vertices"):
        Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)])
    with pytest.raises(ValueError, match="references missing vertex 3"):
        Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 3)])
    with pytest.raises(ValueError, match="degenerate"):
        Triangulation([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])
    with pytest.raises(ValueError, match="vertex 3 is not referenced"):
        Triangulation([(0, 0), (1, 0), (0, 1), (5, 5)], [(0, 1, 2)])


def test_validation_rejects_overshared_edge():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), -1)]
    cells = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is shared by more than two"):
        Triangulation(pts, cells)


def test_validation_rejects_hanging_vertex():
    # vertex 4 splits edge (0, 1) of the big triangle
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, -1)]
    cells = [(0, 1, 2), (0, 2, 3), (0, 4, 5)]
    with pytest.raises(ValueError, match=r"vertex 4 lies inside edge \(0, 1\)"):
        Triangulation(pts, cells)


def test_hanging_vertex_in_a_long_edge_is_found_across_buckets():
    # a strip of 64 small cells keeps the bucket width (the mean edge
    # length) near 2.6, so the big triangle's edge (0, 1), 64 long,
    # spans about two dozen buckets; vertex 3 hangs in its middle
    pts = [(0, 0), (64, 0), (32, 64), (32, 0)]
    top = [len(pts) + k for k in range(33)]  # (k, -1)
    bottom = [len(pts) + 33 + k for k in range(33)]  # (k, -2)
    pts += [(k, -1) for k in range(33)] + [(k, -2) for k in range(33)]
    cells = [(0, 1, 2), (3, top[31], top[32])]
    for k in range(32):
        cells += [(top[k], top[k + 1], bottom[k]), (top[k + 1], bottom[k + 1], bottom[k])]
    with pytest.raises(ValueError, match=r"vertex 3 lies inside edge \(0, 1\)"):
        Triangulation(pts, cells)


def test_vertex_float_near_an_edge_but_exactly_off_it_is_accepted():
    # vertex 2 sits 1e-15 above edge (0, 1): the float filter flags it,
    # the exact test clears it, and the sliver mesh is valid
    pts = [(0, 0), (2, 0), (1, Fraction(1, 10**15)), (1, 1)]
    tri = Triangulation(pts, [(0, 1, 2), (0, 2, 3), (2, 1, 3)])
    assert tri.interior_vertices == [2]
    assert tri.warnings == []


def test_scaled_points_are_exact_over_each_cells_own_denominator(mesh):
    # a denominator per cell, not one for the whole mesh: on the coprime
    # mesh the mesh-wide one would be the product of 18 primes
    num, den = mesh.scaled_points(np.array(mesh.cells))
    for c, cell in enumerate(mesh.cells):
        coords = [x for v in cell for x in mesh.vertices[v]]
        assert den[c] == math.lcm(*(x.denominator for x in coords))
        assert [Fraction(n, den[c]) for n in num[c].ravel()] == coords


def test_h_is_the_largest_simplex_diameter(mesh):
    assert mesh.h == max(mesh.simplex(c).h for c in range(len(mesh.cells)))


def test_validation_rejects_isolated_boundary_vertex():
    # 2x2 grid with all diagonals parallel: corner vertex 2 only sees
    # other boundary vertices
    def gid(i, j):
        return j * 3 + i

    pts = [(Fraction(i, 2), Fraction(j, 2)) for j in range(3) for i in range(3)]
    cells = []
    for j in range(2):
        for i in range(2):
            bl, br = gid(i, j), gid(i + 1, j)
            tr, tl = gid(i + 1, j + 1), gid(i, j + 1)
            cells.extend([(bl, br, tr), (bl, tr, tl)])
    with pytest.raises(ValueError, match="boundary vertex 2 has no edge to an interior"):
        Triangulation(pts, cells)


def test_validation_rejects_disconnected_mesh():
    pts = [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)]
    with pytest.raises(ValueError, match="not edge-connected"):
        Triangulation(pts, [(0, 1, 2), (3, 4, 5)])
    # two 3x3 meshes side by side, their cells interleaved
    base = generate_square_mesh(3, DIAGONAL)
    nv = len(base.vertices)
    pts = base.vertices + [(x + 2, y) for x, y in base.vertices]
    shifted = [tuple(v + nv for v in cell) for cell in base.cells]
    cells = [cell for pair in zip(base.cells, shifted) for cell in pair]
    with pytest.raises(ValueError, match="not edge-connected"):
        Triangulation(pts, cells)


def test_format_round_trip_is_exact():
    tri = generate_square_mesh(3, DIAGONAL)
    text = format_mesh(tri)
    assert "1/3" in text  # thirds have no finite decimal form
    back = parse_mesh(text)
    assert back.vertices == tri.vertices
    assert back.cells == tri.cells
    assert format_mesh(back) == text

    tri2 = generate_square_mesh(2, DIAGONAL)
    text2 = format_mesh(tri2)
    assert "0.5" in text2 and "/" not in text2


def _assert_round_trip(tri):
    back = parse_mesh(format_mesh(tri))
    assert back.vertices == tri.vertices
    assert back.cells == tri.cells


def test_jittered_mesh_moves_interior_vertices_by_seeded_sixteenths():
    base = generate_square_mesh(4, DIAGONAL)
    tri = generate_jittered_mesh(4, 7)
    assert tri.cells == base.cells
    assert generate_jittered_mesh(4, 7).vertices == tri.vertices
    assert generate_jittered_mesh(4, 8).vertices != tri.vertices
    interior = set(base.interior_vertices)
    for i, (p, q) in enumerate(zip(base.vertices, tri.vertices)):
        steps = [(b - a) * 64 for a, b in zip(p, q)]
        assert all(s.denominator == 1 and abs(s) <= 3 for s in steps)
        if i not in interior:
            assert steps == [0, 0]
    assert len(build_product_space(tri).templates) > len(tri.cells) // 2


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_format_round_trip_is_exact_on_jittered_meshes(m, seed):
    _assert_round_trip(generate_jittered_mesh(m, seed))


def test_format_round_trip_is_exact_on_coprime_denominators():
    _assert_round_trip(_coprime(4))


def test_file_round_trip(tmp_path):
    tri = generate_square_mesh(2, CRISSCROSS)
    path = tmp_path / "mesh.txt"
    write_mesh(tri, path)
    back = read_mesh(path)
    assert back.vertices == tri.vertices
    assert back.cells == tri.cells


def test_parse_accepts_comments_and_blank_lines():
    text = (
        "# unit triangle\nndim 2\n\nvertices 3\n0 0\n1 0\n0 1\n\n"
        "# one cell\ncells 1\n0 1 2\n"
    )
    tri = parse_mesh(text)
    assert len(tri.cells) == 1


def test_parse_errors_name_the_bad_entity():
    with pytest.raises(ValueError, match="first line must be 'ndim 2'"):
        parse_mesh("ndim 3\nvertices 0\ncells 0\n")
    with pytest.raises(ValueError, match="vertex count 'x' is not an integer"):
        parse_mesh("ndim 2\nvertices x\ncells 0\n")
    with pytest.raises(ValueError, match="vertex 1: bad coordinate token '1/0'"):
        parse_mesh("ndim 2\nvertices 3\n0 0\n1/0 0\n0 1\ncells 1\n0 1 2\n")
    with pytest.raises(ValueError, match="cell 0: expected three vertex ids"):
        parse_mesh("ndim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1\n")
    with pytest.raises(ValueError, match="ended while expecting cell 0"):
        parse_mesh("ndim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n")
    with pytest.raises(ValueError, match="unexpected trailing content"):
        parse_mesh("ndim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2\n9 9 9\n")


def test_parse_rejects_negative_counts():
    with pytest.raises(ValueError, match="vertex count -1 is negative"):
        parse_mesh("ndim 2\nvertices -1\ncells 0\n")
    with pytest.raises(ValueError, match="cell count -2 is negative"):
        parse_mesh("ndim 2\nvertices 3\n0 0\n1 0\n0 1\ncells -2\n")


def test_a_mesh_without_cells_is_rejected():
    with pytest.raises(ValueError, match="mesh has no cells"):
        Triangulation([], [])
    with pytest.raises(ValueError, match="mesh has no cells"):
        parse_mesh("ndim 2\nvertices 0\ncells 0\n")
    # named before the unreferenced vertices that follow from it
    with pytest.raises(ValueError, match="mesh has no cells"):
        parse_mesh("ndim 2\nvertices 1\n0 0\ncells 0\n")


def reference_fans(cells, nv):
    """The cell-by-cell fan walk of an earlier ``Triangulation``, kept as a reference.

    In a positively oriented cell (v, p, q) the walk crosses the (v, q)
    edge to the other cell sharing it.  It starts at the cell whose
    entry edge (v, p) is on the boundary, or else at the lowest cell.
    """
    edge_cells = {}
    for ci, tri in enumerate(cells):
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge_cells.setdefault((min(e), max(e)), []).append(ci)
    boundary = {e for e, cs in edge_cells.items() if len(cs) == 1}
    incident = {v: [] for v in range(nv)}
    for ci, tri in enumerate(cells):
        for v in tri:
            incident[v].append(ci)

    def pq(cell, v):
        tri = cells[cell]
        i = tri.index(v)
        return tri[(i + 1) % 3], tri[(i + 2) % 3]

    def fan_order(v):
        around = incident[v]
        starts = [c for c in around if (min(v, pq(c, v)[0]), max(v, pq(c, v)[0])) in boundary]
        if len(starts) > 1:
            raise ValueError(f"vertex {v} has a pinched (multi-fan) star")
        start = starts[0] if starts else min(around)
        order, current = [start], start
        while True:
            q = pq(current, v)[1]
            others = [c for c in edge_cells[(min(v, q), max(v, q))] if c != current]
            if not others:
                break
            nxt = others[0]
            if nxt == start:
                if not starts:
                    break
                raise ValueError(f"vertex {v} has an inconsistent star")
            if nxt in order:
                raise ValueError(f"vertex {v} has a pinched (multi-fan) star")
            order.append(nxt)
            current = nxt
        if len(order) != len(around):
            raise ValueError(f"vertex {v} has a pinched (multi-fan) star")
        return order

    return [fan_order(v) for v in range(nv)]


def test_fans_match_the_reference_walk(mesh):
    assert fans(mesh) == reference_fans(mesh.cells, len(mesh.vertices))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["diagonal", "crisscross", "jitter"]),
    m=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_fans_match_the_reference_walk_under_relabelling(kind, m, seed):
    """Relabelled vertices, shuffled cells, rotated or reversed vertex order."""
    if kind == "jitter":
        base = generate_jittered_mesh(m, seed)
    else:
        base = generate_square_mesh(m, CRISSCROSS if kind == "crisscross" else DIAGONAL)
    rng = random.Random(seed)
    nv = len(base.vertices)
    label = list(range(nv))
    rng.shuffle(label)
    vertices = [None] * nv
    for old, new in enumerate(label):
        vertices[new] = base.vertices[old]
    cells = []
    for cell in base.cells:
        turn = rng.randrange(3)
        cell = tuple(label[v] for v in cell[turn:] + cell[:turn])
        cells.append(cell[::-1] if rng.random() < 0.5 else cell)
    rng.shuffle(cells)
    tri = Triangulation(vertices, cells)
    got = fans(tri)
    assert got == reference_fans(tri.cells, nv)
    incident = [set() for _ in range(nv)]
    for c, cell in enumerate(tri.cells):
        for v in cell:
            incident[v].add(c)
    assert [set(f) for f in got] == incident


def test_validation_rejects_non_integer_vertex_ids():
    # an id such as 1.7 was once truncated to vertex 1
    with pytest.raises(ValueError, match=r"cell 0 has a non-integer vertex id 1\.7"):
        Triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1.7, 2)])
    with pytest.raises(ValueError, match=r"cell 1 has a non-integer vertex id '2'"):
        Triangulation([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (1, 3, "2")])
    # integer types other than int are ids
    tri = Triangulation([(0, 0), (1, 0), (0, 1)], [tuple(np.arange(3))])
    assert tri.cells == [(0, 1, 2)] and all(type(v) is int for v in tri.cells[0])


def test_validation_rejects_pinched_star_on_edge_connected_mesh():
    # two opposite cells around the mid vertex 12 of the 4x4 mesh are cut
    # out: its star splits into two fans, joined only through the rest
    base = generate_square_mesh(4, DIAGONAL)
    around = [c for c, cell in enumerate(base.cells) if 12 in cell]
    cut = {around[0], around[3]}
    cells = [cell for c, cell in enumerate(base.cells) if c not in cut]
    with pytest.raises(ValueError, match=r"^vertex 12 has a pinched \(multi-fan\) star$"):
        Triangulation(base.vertices, cells)


def test_validation_rejects_cells_overlapping_on_one_side_of_an_edge():
    # cells 0 and 1 both lie above edge (0, 1)
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(ValueError, match=r"^vertex 0 has a pinched \(multi-fan\) star$"):
        Triangulation(pts, [(0, 1, 2), (0, 1, 3)])
    # cells 0 and 1 overlap along (0, 2), cells 1 and 2 along (0, 3): the
    # walk around vertex 0 from cell 0 comes back to cell 0
    pts = [(0, 0), (4, 1), (0, 4), (4, 3), (1, 4)]
    with pytest.raises(ValueError, match=r"^vertex 0 has an inconsistent star$"):
        Triangulation(pts, [(0, 1, 2), (0, 3, 2), (0, 3, 4)])


def test_overshared_edge_is_named_in_cell_order():
    # edge (2, 3) sorts after edge (0, 1) but gets its third cell first
    pts = [(0, 0), (1, 0), (10, 0), (11, 0), (10, 1), (11, 1), (10, -1)]
    pts += [(0, 1), (1, 1), (0, -1)]
    cells = [(2, 3, 4), (0, 1, 7), (2, 3, 5), (0, 1, 8), (2, 3, 6), (0, 1, 9)]
    with pytest.raises(ValueError, match=r"^edge \(2, 3\) is shared by more than two cells$"):
        Triangulation(pts, cells)


def test_hats_partition_unity_and_interpolate_vertices():
    """Each cell's barycentric coordinates are its three hats, in slot order."""
    tri = generate_square_mesh(2, DIAGONAL)
    for c in range(len(tri.cells)):
        s = tri.simplex(c)
        hats = s.barycentric_coordinates()
        total = hats[0] + hats[1] + hats[2]
        assert total.terms == {(0, 0): Fraction(1)}
        for i, v in enumerate(tri.cells[c]):
            centered = tuple(
                tri.vertices[v][j] - s.barycenter[j] for j in range(2)
            )
            for i2 in range(3):
                expect = Fraction(1 if i2 == i else 0)
                assert hats[i2](centered) == expect


def test_zero_kind_keeps_interior_vertices_only():
    """Rot constraint rows (hats vanishing on the boundary) sit at interior vertices only."""
    tri = generate_square_mesh(4, DIAGONAL)
    cons = build_constraints(tri, build_product_space(tri))
    assert cons.B_div.shape[0] == 25
    assert cons.B_rot.shape[0] == 9

    def cells_of(rows, r):
        return set((rows[r].indices // 6).tolist())

    # div row v and rot row r live on the cells around vertex v and
    # around tri.interior_vertices[r]
    assert [cells_of(cons.B_div, v) for v in range(25)] == [set(fan) for fan in fans(tri)]
    assert [cells_of(cons.B_rot, r) for r in range(9)] == [
        set(fans(tri)[a]) for a in tri.interior_vertices
    ]


def test_hat_form_wrappers_match_exterior_calculus():
    """d of a hat 0-form is its gradient; the Green delta of hat dx^12 its rotated gradient."""
    tri = generate_square_mesh(2, DIAGONAL)
    for c in (0, 3):
        for lam in tri.simplex(c).barycentric_coordinates():
            grad = exterior_derivative(PolyForm(2, 0, {(): lam}))
            assert grad == PolyForm(2, 1, {(1,): lam.partial(1), (2,): lam.partial(2)})
            rot_grad = codifferential_green(PolyForm(2, 2, {(1, 2): lam}))
            assert rot_grad == PolyForm(2, 1, {(1,): lam.partial(2), (2,): -lam.partial(1)})

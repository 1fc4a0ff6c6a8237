"""Triangulation validation, square-mesh generators, mesh IO, hat functions."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgefem.forms import PolyForm, codifferential_green, exterior_derivative
from hodgefem.globalspace import build_constraints, build_global_basis, build_product_space
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


def test_corners_are_the_cells_as_one_read_only_intp_array():
    base = generate_jittered_mesh(4, 1)
    # cells given clockwise and as an array: corners hold them reoriented, in a copy
    ids = np.array([c[::-1] for c in base.cells])
    for tri in (base, Triangulation(base.vertices, ids)):
        assert tri.corners.dtype == np.intp and tri.corners.shape == (len(tri.cells), 3)
        assert tri.corners.tolist() == [list(c) for c in tri.cells]
        assert not np.shares_memory(tri.corners, ids)
        with pytest.raises(ValueError, match="read-only"):
            tri.corners[0, 0] = tri.corners[0, 1]
    assert all(c in (b, b[1:] + b[:1], b[2:] + b[:2]) for c, b in zip(tri.cells, base.cells))


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
    # vertex 2 sits 1e-15 above edge (0, 1): the float areas cannot tell
    # the sliver cells from degenerate ones, the exact test clears them
    pts = [(0, 0), (2, 0), (1, Fraction(1, 10**15)), (1, 1)]
    tri = Triangulation(pts, [(0, 1, 2), (0, 2, 3), (2, 1, 3)])
    assert tri.interior_vertices == [2]
    assert tri.warnings == []
    # on the boundary, vertex 2 is a candidate for edge (0, 1) and is cleared
    tri = Triangulation(pts[:3], [(0, 1, 2)])
    assert tri.cells == [(0, 1, 2)]


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
    # a tetrahedron's surface drawn flat has no boundary edge at all
    with pytest.raises(ValueError, match=r"^vertex 0 has a pinched \(multi-fan\) star$"):
        pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
        Triangulation(pts, [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 1, 2)])


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


def _pentagram():
    """Five cells (0, p_i, p_i+2) around a centre: they cover the star twice."""
    pts = [(0, 0), (0, 1000), (-951, 309), (-588, -809), (588, -809), (951, 309)]
    return pts, [(0, i, (i + 1) % 5 + 1) for i in range(1, 6)]


def _spiral():
    """A strip of 36 cells, 200 wide, wound 450 degrees out by 144 per turn."""
    pts, cells = [], []
    for k in range(19):
        a, r = math.radians(25 * k), 400 + 12 * k
        pts += [(round(s * math.cos(a)), round(s * math.sin(a))) for s in (r, r + 200)]
    for k in range(0, 36, 2):
        cells += [(k, k + 1, k + 3), (k, k + 3, k + 2)]
    return pts, cells


def _branched_annulus():
    """A square ring around a square that a double cover branched at (-1, 0)
    and (1, 0) covers twice: the second sheet drawn at 3/4 scale and moved by
    (1/7, 1/10), the ring glued to the first sheet's boundary.

    The cells wind twice around each branch point and no boundary edges
    meet, but the second sheet's boundary runs counterclockwise, as does
    the ring's outer boundary.
    """
    square = {"l": (-2, 0), "nw": (-2, 2), "n": (0, 2), "ne": (2, 2), "e": (2, 0)}
    square.update({"se": (2, -2), "s": (0, -2), "sw": (-2, -2), "o": (0, 0)})
    upper = [("l", "b1", "nw"), ("b1", "n", "nw"), ("b1", "o", "n"), ("o", "b2", "n")]
    upper += [("b2", "ne", "n"), ("b2", "e", "ne")]
    lower = [("l", "sw", "b1"), ("b1", "sw", "s"), ("b1", "s", "o"), ("o", "s", "b2")]
    lower += [("b2", "s", "se"), ("b2", "se", "e")]
    pts, index = [(-1, 0), (1, 0)], {"b1": 0, "b2": 1}
    shift = Fraction(1, 7), Fraction(1, 10)
    for sheet, scale, (dx, dy) in ((0, 1, (0, 0)), (1, Fraction(3, 4), shift)):
        for name, (x, y) in square.items():
            index[name, sheet] = len(pts)
            pts.append((scale * x + dx, scale * y + dy))
    cells = []
    for sheet in (0, 1):
        for cell in upper + lower:
            # below the slit from b1 to b2 the centre o comes from the other sheet
            swap = {"o": 1 - sheet} if cell in lower else {}
            cells.append(tuple(index.get(v, index.get((v, swap.get(v, sheet)))) for v in cell))
    ring = ["sw", "s", "se", "e", "ne", "n", "nw", "l"]
    outer = [len(pts) + k for k in range(8)]
    pts += [(Fraction(3, 2) * square[v][0], Fraction(3, 2) * square[v][1]) for v in ring]
    for k in range(8):
        a, b = index[ring[k], 0], index[ring[(k + 1) % 8], 0]
        cells += [(a, outer[k], outer[(k + 1) % 8]), (a, outer[(k + 1) % 8], b)]
    return pts, cells


def test_validation_rejects_folded_meshes():
    # no vertex lies on an edge and every cell is positive, yet the cells
    # overlap: the boundary edges cross
    cases = [(_pentagram(), r"\(1, 3\) and \(2, 4\)"), (_spiral(), r"\(0, 1\) and \(28, 30\)")]
    for mesh, edges in cases:
        with pytest.raises(ValueError, match=rf"^boundary edges {edges} cross: folded mesh$"):
            Triangulation(*mesh)
    # no boundary edges meet, but two boundary loops run counterclockwise
    loops = r"^boundary loops through vertices 12 and 20 both run counterclockwise: folded mesh$"
    with pytest.raises(ValueError, match=loops):
        Triangulation(*_branched_annulus())


def test_an_annulus_is_accepted():
    # the diagonal 6 x 6 mesh without its central 2 x 2 squares and their
    # centre vertex: two boundary loops, the inner one clockwise
    base = generate_square_mesh(6, DIAGONAL)
    hole = {2 * (6 * j + i) + t for i in (2, 3) for j in (2, 3) for t in (0, 1)}
    cells = [cell for c, cell in enumerate(base.cells) if c not in hole]
    keep = sorted({v for cell in cells for v in cell})
    new = {v: k for k, v in enumerate(keep)}
    cells = [tuple(new[v] for v in cell) for cell in cells]
    tri = Triangulation([base.vertices[v] for v in keep], cells)
    assert len(tri.cells) == 64
    assert tri.warnings == ["Euler characteristic 0 != 1 (not a disk)"]
    prod = build_product_space(tri)
    cons = build_constraints(tri, prod)
    assert cons.rank() == cons.rows
    assert len(build_global_basis(tri, prod)) == 6 * len(tri.cells) - cons.rows == 320


def _reference_candidates(pts, ends):
    """(edge, vertex) pairs of the bucketed scan of an earlier ``Triangulation``.

    Vertices are hashed into square buckets one mean edge long; each edge
    is sampled at most one bucket width apart, and the vertices in the 3x3
    bucket blocks around its samples are its candidates.
    """
    d = pts[ends[:, 1]] - pts[ends[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    lo = pts.min(axis=0)
    span = float((pts.max(axis=0) - lo).max())
    width = max(float(length.mean()), span / (1 << 16)) or 1.0
    inner = int(span / width) + 1  # occupied bucket coordinates are 1..inner
    cols = inner + 2

    def bucket(p):
        return np.clip(np.floor((p - lo) / width).astype(np.int64) + 1, 1, inner)

    vb = bucket(pts)
    vid = vb[:, 0] * cols + vb[:, 1]
    order = np.argsort(vid, kind="stable")
    steps = np.ceil(length / width).astype(np.int64)
    edge_of = np.repeat(np.arange(len(ends)), steps + 1)
    first = np.cumsum(steps + 1) - (steps + 1)
    t = (np.arange(len(edge_of)) - first[edge_of]) / np.maximum(steps[edge_of], 1)
    sb = bucket(pts[ends[edge_of, 0]] + t[:, None] * d[edge_of])
    near = np.arange(-1, 2)
    block = (sb[:, 0, None, None] + near[:, None]) * cols + (sb[:, 1, None, None] + near)
    pairs = np.unique(edge_of[:, None, None] * (cols * cols) + block)
    pair_edge, pair_bucket = np.divmod(pairs, cols * cols)
    start = np.searchsorted(vid[order], pair_bucket, side="left")
    count = np.searchsorted(vid[order], pair_bucket, side="right") - start
    e = np.repeat(pair_edge, count)
    offset = np.arange(len(e)) - np.repeat(np.cumsum(count) - count, count)
    return e, order[np.repeat(start, count) + offset]


def reference_hanging_vertex(tri):
    """The message of the hanging-vertex scan of an earlier ``Triangulation``, or None.

    Every vertex is tested against every edge near it: a float
    collinearity filter, then the exact integer test, in edge then vertex
    order.
    """
    pts = np.array([[float(x), float(y)] for x, y in tri.vertices])
    e, v = _reference_candidates(pts, tri.edges)
    a, b = tri.edges[e].T
    d, rel = pts[b] - pts[a], pts[v] - pts[a]
    cross = rel[:, 0] * d[:, 1] - rel[:, 1] * d[:, 0]
    dot, L2 = (rel * d).sum(axis=1), (d * d).sum(axis=1)
    near = (np.abs(cross) <= 1e-9 * L2) & (dot > 1e-12) & (dot < L2 - 1e-12) & (v != a) & (v != b)
    order = np.lexsort((v[near], e[near]))
    e, v = e[near][order], v[near][order]
    num, _ = tri.scaled_points(np.column_stack([tri.edges[e], v]))
    ex, rv = num[:, 1] - num[:, 0], num[:, 2] - num[:, 0]
    dt, l2 = (rv * ex).sum(axis=1), (ex * ex).sum(axis=1)
    inside = (rv[:, 0] * ex[:, 1] == rv[:, 1] * ex[:, 0]) & (dt > 0) & (dt < l2)
    if not inside.any():
        return None
    k = np.argmax(inside)
    a, b = tri.edges[e[k]]
    return f"vertex {v[k]} lies inside edge ({a}, {b}): nonconforming mesh"


def reference_rejects(vertices, cells) -> bool:
    """The verdict of an earlier ``Triangulation``: its other checks and the bucketed scan."""
    with mock.patch.object(Triangulation, "_boundary_meetings", return_value=(None, None)):
        with mock.patch.object(Triangulation, "_check_boundary_loops", return_value=None):
            try:
                tri = Triangulation(vertices, cells)
            except ValueError:
                return True
    return reference_hanging_vertex(tri) is not None


def test_reference_scan_finds_the_pinned_hanging_vertices():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, -1)]
    cells = [(0, 1, 2), (0, 2, 3), (0, 4, 5)]
    with mock.patch.object(Triangulation, "_boundary_meetings", return_value=(None, None)):
        with pytest.raises(ValueError, match="not edge-connected"):
            Triangulation(pts, cells)
    assert reference_rejects(pts, cells)
    # the pentagram passes the scan and every other check of the reference
    assert not reference_rejects(*_pentagram())


def _broken(kind, m, seed, op):
    """A structured or jittered mesh with a vertex moved onto an edge, up to
    three interior edges flipped, or up to three cells cut out."""
    rng = random.Random(seed)
    if kind == "jitter":
        base = generate_jittered_mesh(m, seed)
    else:
        base = generate_square_mesh(m, CRISSCROSS if kind == "crisscross" else DIAGONAL)
    vertices, cells = list(base.vertices), list(base.cells)
    if op == "move":
        v = rng.randrange(len(vertices))
        (ax, ay), (bx, by) = (vertices[u] for u in base.edges[rng.randrange(len(base.edges))])
        t = Fraction(rng.randint(1, 3), 4)
        vertices[v] = (ax + t * (bx - ax), ay + t * (by - ay))
    elif op == "flip":
        twins = {}
        for c, cell in enumerate(cells):
            for i in range(3):
                twins.setdefault(frozenset((cell[i], cell[i - 1])), []).append(c)
        inner = sorted((sorted(e), cs) for e, cs in twins.items() if len(cs) == 2)
        for _ in range(rng.randint(1, 3)):
            (a, b), (c1, c2) = inner[rng.randrange(len(inner))]
            # an earlier flip may have replaced either cell
            if {a, b} <= set(cells[c1]) & set(cells[c2]) and len({*cells[c1], *cells[c2]}) == 4:
                p, q = (next(v for v in cells[c] if v not in (a, b)) for c in (c1, c2))
                cells[c1], cells[c2] = (p, q, a), (q, p, b)
    else:
        for c in sorted(rng.sample(range(len(cells)), rng.randint(1, 3)), reverse=True):
            del cells[c]
    return vertices, cells


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["diagonal", "crisscross", "jitter"]),
    m=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    op=st.sampled_from(["move", "flip", "cut"]),
)
def test_validation_agrees_with_the_reference_scan_on_broken_meshes(kind, m, seed, op):
    vertices, cells = _broken(kind, m, seed, op)
    try:
        Triangulation(vertices, cells)
        rejected = False
    except ValueError:
        rejected = True
    assert rejected == reference_rejects(vertices, cells)

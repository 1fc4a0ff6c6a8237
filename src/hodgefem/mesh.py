"""Planar triangulations, structured generators, and mesh file I/O.

A Triangulation validates its input on construction: cells are oriented
positively (reordering when needed), a mesh without cells, degenerate
or duplicate cells and isolated or duplicate vertices are rejected with
messages naming the offending entity, edges may be shared by at most
two cells, every vertex star must be a single fan (disk or half-disk),
and, when the mesh has interior vertices at all, every boundary vertex
must share an edge with at least one interior vertex (the constraint
pipeline relies on this).
A mesh without interior vertices (a single triangle, a strip) is
accepted and flagged in ``warnings``.

The mesh file format is line based and exact:

    ndim 2
    vertices N
    x y            (N lines; integers, exact decimals, or p/q fractions)
    cells M
    i j k          (M lines; 0-based vertex ids)

Coordinates with terminating decimal expansions are written as decimals,
anything else as p/q, so write/read round-trips reproduce coordinates
bit for bit.

The structured unit-square generators produce the DIAGONAL pattern
(bottom-left to top-right diagonals, with the two corner squares that a
parallel-diagonal mesh would leave cut off from the interior flipped the
other way) and the CRISSCROSS pattern (four triangles per square around
a center vertex).  ``generate_jittered_mesh`` perturbs the DIAGONAL mesh
by seeded exact rationals, so that almost every cell has its own shape.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property

import numpy as np

from .forms import as_fraction
from .simplices import Simplex

__all__ = [
    "DIAGONAL",
    "CRISSCROSS",
    "INTERIOR",
    "BOUNDARY",
    "Triangulation",
    "check_mesh_parameter",
    "generate_square_mesh",
    "generate_jittered_mesh",
    "read_mesh",
    "write_mesh",
    "parse_mesh",
    "format_mesh",
]

DIAGONAL = "diagonal"
CRISSCROSS = "crisscross"
INTERIOR = "interior"
BOUNDARY = "boundary"


# The hanging-vertex check hashes vertices into at most this many
# buckets per axis, which bounds its integer bucket ids.
_MAX_BUCKETS = 1 << 16

class Triangulation:
    """A validated conforming triangulation of a planar domain."""

    def __init__(self, vertices, cells):
        self.vertices: list[tuple[Fraction, Fraction]] = [
            (as_fraction(v[0]), as_fraction(v[1])) for v in vertices
        ]
        self.warnings: list[str] = []
        nv = len(self.vertices)
        seen: dict[tuple[Fraction, Fraction], int] = {}
        for i, v in enumerate(self.vertices):
            if v in seen:
                raise ValueError(f"vertex {i} duplicates vertex {seen[v]} at {v}")
            seen[v] = i
        # exact coordinates as Python-int numerators and denominators, the
        # input of scaled_points
        self._numerators = np.array(
            [[x.numerator for x in v] for v in self.vertices], dtype=object
        ).reshape(-1, 2)
        self._denominators = np.array(
            [[x.denominator for x in v] for v in self.vertices], dtype=object
        ).reshape(-1, 2)

        checked: list[tuple[int, int, int]] = []
        invalid = None
        cell_keys: dict[frozenset, int] = {}
        for ci, cell in enumerate(cells):
            tri = tuple(int(x) for x in cell)
            key = frozenset(tri)
            missing = [v for v in tri if not (0 <= v < nv)]
            if len(tri) != 3 or len(key) != 3:
                invalid = f"cell {ci} must have three distinct vertices, got {tri}"
            elif missing:
                invalid = f"cell {ci} references missing vertex {missing[0]}"
            elif key in cell_keys:
                invalid = f"cell {ci} duplicates cell {cell_keys[key]}"
            if invalid is not None:
                break
            cell_keys[key] = ci
            checked.append(tri)
        # orientation from exact signed areas; a degenerate cell is reported
        # before an invalid cell that follows it
        num, _ = self.scaled_points(np.array(checked, dtype=np.intp).reshape(-1, 3))
        e1, e2 = num[:, 1] - num[:, 0], num[:, 2] - num[:, 0]
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        degenerate = np.flatnonzero(area2 == 0)
        if len(degenerate):
            ci = int(degenerate[0])
            raise ValueError(f"cell {ci} with vertices {checked[ci]} is degenerate")
        if invalid is not None:
            raise ValueError(invalid)
        if not checked:
            raise ValueError("mesh has no cells")
        self.cells: list[tuple[int, int, int]] = [
            (a, c, b) if flip else (a, b, c)
            for (a, b, c), flip in zip(checked, (area2 < 0).tolist())
        ]

        used = set()
        for tri in self.cells:
            used.update(tri)
        for i in range(nv):
            if i not in used:
                raise ValueError(f"vertex {i} is not referenced by any cell")

        # edge incidence
        edge_cells: dict[tuple[int, int], list[int]] = {}
        for ci, tri in enumerate(self.cells):
            for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(e), max(e))
                lst = edge_cells.setdefault(key, [])
                lst.append(ci)
                if len(lst) > 2:
                    raise ValueError(f"edge {key} is shared by more than two cells")
        self.edge_cells = edge_cells
        self.edges: list[tuple[int, int]] = sorted(edge_cells)
        self.boundary_edges = {e for e, cs in edge_cells.items() if len(cs) == 1}

        self._check_no_hanging_vertices()

        # connectivity across shared edges
        if self.cells:
            adj: dict[int, list[int]] = {i: [] for i in range(len(self.cells))}
            for cs in edge_cells.values():
                if len(cs) == 2:
                    adj[cs[0]].append(cs[1])
                    adj[cs[1]].append(cs[0])
            stack, visited = [0], {0}
            while stack:
                c = stack.pop()
                for nb in adj[c]:
                    if nb not in visited:
                        visited.add(nb)
                        stack.append(nb)
            if len(visited) != len(self.cells):
                raise ValueError("mesh is not edge-connected")

        boundary_vertices = set()
        for (a, b) in self.boundary_edges:
            boundary_vertices.add(a)
            boundary_vertices.add(b)
        self.vertex_class = [
            BOUNDARY if i in boundary_vertices else INTERIOR for i in range(nv)
        ]
        self.interior_vertices = [i for i in range(nv) if self.vertex_class[i] == INTERIOR]

        self.patches: dict[int, list[int]] = {}
        incident: dict[int, list[int]] = {i: [] for i in range(nv)}
        for ci, tri in enumerate(self.cells):
            for v in tri:
                incident[v].append(ci)
        for v in range(nv):
            self.patches[v] = self._fan_order(v, incident[v])

        if self.interior_vertices:
            neighbor: dict[int, set[int]] = {i: set() for i in range(nv)}
            for (a, b) in self.edges:
                neighbor[a].add(b)
                neighbor[b].add(a)
            for v in range(nv):
                if self.vertex_class[v] == BOUNDARY and not any(
                    self.vertex_class[u] == INTERIOR for u in neighbor[v]
                ):
                    raise ValueError(
                        f"boundary vertex {v} has no edge to an interior vertex"
                    )
        else:
            self.warnings.append("mesh has no interior vertices")

        self.euler_characteristic = nv - len(self.edges) + len(self.cells)
        if self.euler_characteristic != 1:
            self.warnings.append(
                f"Euler characteristic {self.euler_characteristic} != 1 (not a disk)"
            )

        self._simplices: list[Simplex | None] = [None] * len(self.cells)

    # -- derived geometry ------------------------------------------------

    def simplex(self, cell: int) -> Simplex:
        s = self._simplices[cell]
        if s is None:
            s = Simplex([self.vertices[v] for v in self.cells[cell]])
            self._simplices[cell] = s
        return s

    def scaled_points(self, groups) -> tuple[np.ndarray, np.ndarray]:
        """Exact integer coordinates of groups of vertices.

        ``groups`` is an (n, k) integer array of vertex indices.  Returns
        (num, den), Python-int object arrays of shapes (n, k, 2) and (n,), with
        ``vertices[groups[i][j]] == num[i, j] / den[i]`` and den[i] the
        least common denominator of group i.  A denominator per group keeps
        every integer as small as that group's own coordinates.
        """
        n, k = groups.shape
        dens = self._denominators[groups]
        den = np.lcm.reduce(dens.reshape(n, 2 * k), axis=1)
        return self._numerators[groups] * (den[:, None, None] // dens), den

    @cached_property
    def h(self) -> float:
        """Largest edge length, equal to the largest ``simplex(c).h``."""
        num, den = self.scaled_points(np.array(self.edges, dtype=np.intp).reshape(-1, 2))
        d = num[:, 1] - num[:, 0]
        # Python int division rounds each exact squared length once, as
        # float(Fraction); rounding keeps the order, so the max is the same
        return math.sqrt(max(((d * d).sum(axis=1) / (den * den)).tolist()))

    def vertex_degree(self, v: int) -> int:
        return len(self.patches[v])

    def cell_slot(self, cell: int, vertex: int) -> int:
        tri = self.cells[cell]
        for i in range(3):
            if tri[i] == vertex:
                return i
        raise ValueError(f"vertex {vertex} not in cell {cell}")

    # -- validation helpers ----------------------------------------------

    def _check_no_hanging_vertices(self) -> None:
        """No vertex may lie in the open interior of another cell's edge.

        Candidates come from a uniform bucket grid (``_edge_candidates``);
        a float collinearity filter narrows them and the exact Fraction
        test confirms, in edge order then vertex order.
        """
        if not self.edges:
            return
        pts = np.array([[float(x), float(y)] for (x, y) in self.vertices])
        ends = np.array(self.edges)
        e, v = _edge_candidates(pts, ends)
        a, b = ends[e, 0], ends[e, 1]
        d = pts[b] - pts[a]
        rel = pts[v] - pts[a]
        cross = rel[:, 0] * d[:, 1] - rel[:, 1] * d[:, 0]
        dot = rel[:, 0] * d[:, 0] + rel[:, 1] * d[:, 1]
        L2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        suspicious = (
            (np.abs(cross) <= 1e-9 * L2)
            & (dot > 1e-12)
            & (dot < L2 - 1e-12)
            & (v != a)
            & (v != b)
        )
        e, v = e[suspicious], v[suspicious]
        for k in np.lexsort((v, e)):
            ia, ib = self.edges[e[k]]
            iv = int(v[k])
            va, vb, vv = self.vertices[ia], self.vertices[ib], self.vertices[iv]
            ex = (vb[0] - va[0], vb[1] - va[1])
            rv = (vv[0] - va[0], vv[1] - va[1])
            cr = rv[0] * ex[1] - rv[1] * ex[0]
            dt = rv[0] * ex[0] + rv[1] * ex[1]
            l2 = ex[0] * ex[0] + ex[1] * ex[1]
            if cr == 0 and 0 < dt < l2:
                raise ValueError(
                    f"vertex {iv} lies inside edge ({ia}, {ib}): nonconforming mesh"
                )

    def _fan_order(self, v: int, cells: list[int]) -> list[int]:
        """Order the cells around ``v`` into a single fan (cycle or path).

        In a positively oriented cell (v, p, q) the walk proceeds across
        the (v, q) edge to the neighbor sharing it.  Interior vertices
        give a closed cycle (started at the lowest cell id for
        determinism); boundary vertices give a path starting at the cell
        whose entry edge (v, p) is on the boundary.  Anything else is a
        pinched star and is rejected.
        """
        if not cells:
            raise ValueError(f"vertex {v} is not referenced by any cell")

        def pq(cell: int) -> tuple[int, int]:
            tri = self.cells[cell]
            i = tri.index(v)
            return tri[(i + 1) % 3], tri[(i + 2) % 3]

        def neighbor_across(cell: int, q: int) -> int | None:
            key = (min(v, q), max(v, q))
            cs = self.edge_cells[key]
            others = [c for c in cs if c != cell]
            return others[0] if others else None

        starts = []
        for c in cells:
            p, _ = pq(c)
            key = (min(v, p), max(v, p))
            if key in self.boundary_edges:
                starts.append(c)
        if len(starts) > 1:
            raise ValueError(f"vertex {v} has a pinched (multi-fan) star")
        start = starts[0] if starts else min(cells)

        order = [start]
        seen = {start}
        current = start
        while True:
            _, q = pq(current)
            nxt = neighbor_across(current, q)
            if nxt is None:
                break
            if nxt == start:
                if not starts:
                    break  # closed the interior cycle
                raise ValueError(f"vertex {v} has an inconsistent star")
            if nxt in seen:
                raise ValueError(f"vertex {v} has a pinched (multi-fan) star")
            order.append(nxt)
            seen.add(nxt)
            current = nxt
        if len(order) != len(cells):
            raise ValueError(f"vertex {v} has a pinched (multi-fan) star")
        return order


def _edge_candidates(pts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(edge, vertex) index pairs with every vertex within reach of its edge.

    Vertices are hashed into square buckets about one mean edge length
    wide.  Each edge is sampled at most one bucket width apart, so every
    point of it lies within half a width of a sample and hence inside
    the 3x3 bucket block around that sample's bucket; the vertices of
    those blocks are its candidates.  The cost is linear in the edges
    and in the vertices per bucket, not O(edges * vertices).
    """
    d = pts[ends[:, 1]] - pts[ends[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    lo = pts.min(axis=0)
    span = float((pts.max(axis=0) - lo).max())
    width = max(float(length.mean()), span / _MAX_BUCKETS)
    if not width > 0.0:
        width = 1.0
    inner = int(span / width) + 1  # occupied bucket coordinates are 1..inner
    cols = inner + 2

    def bucket(p: np.ndarray) -> np.ndarray:
        return np.clip(np.floor((p - lo) / width).astype(np.int64) + 1, 1, inner)

    vb = bucket(pts)
    vid = vb[:, 0] * cols + vb[:, 1]
    order = np.argsort(vid, kind="stable")
    sorted_vid = vid[order]

    steps = np.ceil(length / width).astype(np.int64)
    edge_of = np.repeat(np.arange(len(ends)), steps + 1)
    first = np.cumsum(steps + 1) - (steps + 1)
    t = (np.arange(len(edge_of)) - first[edge_of]) / np.maximum(steps[edge_of], 1)
    sb = bucket(pts[ends[edge_of, 0]] + t[:, None] * d[edge_of])
    near = np.arange(-1, 2)
    block = (sb[:, 0, None, None] + near[:, None]) * cols + (sb[:, 1, None, None] + near)
    # unique (edge, bucket) pairs, by sorting: np.unique hashes and is slower
    pairs = np.sort(edge_of[:, None, None] * (cols * cols) + block, axis=None)
    pairs = pairs[np.r_[True, pairs[1:] != pairs[:-1]]]
    pair_edge, pair_bucket = np.divmod(pairs, cols * cols)

    start = np.searchsorted(sorted_vid, pair_bucket, side="left")
    count = np.searchsorted(sorted_vid, pair_bucket, side="right") - start
    e = np.repeat(pair_edge, count)
    offset = np.arange(len(e)) - np.repeat(np.cumsum(count) - count, count)
    return e, order[np.repeat(start, count) + offset]


def check_mesh_parameter(m: int) -> None:
    """Raise ValueError unless m is a valid ``generate_square_mesh`` parameter."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"mesh parameter m must be an integer >= 2, got {m}")


def generate_square_mesh(m: int, pattern: str = DIAGONAL) -> Triangulation:
    """Uniform triangulation of the unit square with m x m subsquares."""
    check_mesh_parameter(m)
    if pattern not in (DIAGONAL, CRISSCROSS):
        raise ValueError(f"unknown mesh pattern {pattern!r}")

    def gid(i: int, j: int) -> int:
        return j * (m + 1) + i

    vertices: list[tuple[Fraction, Fraction]] = [
        (Fraction(i, m), Fraction(j, m)) for j in range(m + 1) for i in range(m + 1)
    ]
    cells: list[tuple[int, int, int]] = []

    if pattern == DIAGONAL:
        flipped = {(m - 1, 0), (0, m - 1)}
        for j in range(m):
            for i in range(m):
                bl, br = gid(i, j), gid(i + 1, j)
                tr, tl = gid(i + 1, j + 1), gid(i, j + 1)
                if (i, j) in flipped:
                    cells.append((bl, br, tl))
                    cells.append((br, tr, tl))
                else:
                    cells.append((bl, br, tr))
                    cells.append((bl, tr, tl))
    else:
        centers: dict[tuple[int, int], int] = {}
        for j in range(m):
            for i in range(m):
                centers[(i, j)] = len(vertices)
                vertices.append((Fraction(2 * i + 1, 2 * m), Fraction(2 * j + 1, 2 * m)))
        for j in range(m):
            for i in range(m):
                bl, br = gid(i, j), gid(i + 1, j)
                tr, tl = gid(i + 1, j + 1), gid(i, j + 1)
                c = centers[(i, j)]
                cells.extend([(bl, br, c), (br, tr, c), (tr, tl, c), (tl, bl, c)])

    return Triangulation(vertices, cells)


def generate_jittered_mesh(m: int, seed: int) -> Triangulation:
    """The DIAGONAL m x m mesh with each interior vertex moved by seeded exact rationals.

    Each coordinate of an interior vertex moves by i / (16 m) with i a
    uniform integer in -3..3 from ``random.Random(seed)``, in vertex
    order, x before y: at most about a fifth of the mesh size, so the
    mesh stays valid while almost every cell gets its own shape.
    """
    base = generate_square_mesh(m, DIAGONAL)
    rng = random.Random(seed)
    interior = set(base.interior_vertices)
    vertices = []
    for i, (x, y) in enumerate(base.vertices):
        if i in interior:
            x += Fraction(rng.randint(-3, 3), 16 * m)
            y += Fraction(rng.randint(-3, 3), 16 * m)
        vertices.append((x, y))
    return Triangulation(vertices, base.cells)


def _format_fraction(x: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else p/q."""
    q = x.denominator
    if q == 1:
        return str(x.numerator)
    a = 0
    while q % 2 == 0:
        q //= 2
        a += 1
    b = 0
    while q % 5 == 0:
        q //= 5
        b += 1
    if q != 1:
        return f"{x.numerator}/{x.denominator}"
    digits = max(a, b)
    scaled = x.numerator * 10**digits // x.denominator
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def format_mesh(tri: Triangulation) -> str:
    lines = ["ndim 2", f"vertices {len(tri.vertices)}"]
    for (x, y) in tri.vertices:
        lines.append(f"{_format_fraction(x)} {_format_fraction(y)}")
    lines.append(f"cells {len(tri.cells)}")
    for (a, b, c) in tri.cells:
        lines.append(f"{a} {b} {c}")
    return "\n".join(lines) + "\n"


def parse_mesh(text: str) -> Triangulation:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    pos = 0

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ValueError(f"mesh file ended while expecting {what}")
        ln = lines[pos]
        pos += 1
        return ln

    def count(form: str, what: str) -> int:
        head = take(f"'{form}' header").split()
        if len(head) != 2 or head[0] != form.split()[0]:
            raise ValueError(f"expected '{form}', got {' '.join(head)!r}")
        try:
            n = int(head[1])
        except ValueError:
            raise ValueError(f"{what} count {head[1]!r} is not an integer") from None
        if n < 0:
            raise ValueError(f"{what} count {n} is negative")
        return n

    header = take("'ndim' header").split()
    if header != ["ndim", "2"]:
        raise ValueError(f"first line must be 'ndim 2', got {' '.join(header)!r}")
    nv = count("vertices N", "vertex")
    vertices = []
    for i in range(nv):
        toks = take(f"vertex {i}").split()
        if len(toks) != 2:
            raise ValueError(f"vertex {i}: expected two coordinates, got {len(toks)}")
        coords = []
        for t in toks:
            try:
                coords.append(Fraction(t))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"vertex {i}: bad coordinate token {t!r}") from None
        vertices.append(tuple(coords))
    nc = count("cells M", "cell")
    cells = []
    for i in range(nc):
        toks = take(f"cell {i}").split()
        if len(toks) != 3:
            raise ValueError(f"cell {i}: expected three vertex ids, got {len(toks)}")
        try:
            cells.append(tuple(int(t) for t in toks))
        except ValueError:
            raise ValueError(f"cell {i}: bad vertex id in {toks}") from None
    if pos != len(lines):
        raise ValueError(f"unexpected trailing content at line {pos + 1}")
    return Triangulation(vertices, cells)


def read_mesh(path) -> Triangulation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mesh(fh.read())


def write_mesh(tri: Triangulation, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_mesh(tri))

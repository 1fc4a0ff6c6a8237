"""Planar triangulations, structured generators, and mesh file I/O.

A Triangulation validates its input on construction: cells are oriented
positively (reordering when needed), a mesh without cells, degenerate
or duplicate cells, non-integer vertex ids and isolated or duplicate
vertices are rejected with messages naming the offending entity, edges
may be shared by at most two cells, every vertex star must be a single
fan (disk or half-disk), and, when the mesh has interior vertices at
all, every boundary vertex must share an edge with at least one
interior vertex (the constraint pipeline relies on this).
A mesh without interior vertices (a single triangle, a strip) is
accepted and flagged in ``warnings``.

The topology is one table of the 3 * cells half-edges, half-edge 3c + i
running from ``cells[c][i]`` to ``cells[c][(i + 1) % 3]``, sorted once by
undirected edge: that gives the sorted ``edges``, each half-edge's twin
(-1 on the boundary), ``interior_vertices`` and the cell connectivity.
The cells around vertex v, in fan order, are stored once as a CSR:
``fan_cells[fan_start[v]:fan_start[v + 1]]`` (see ``_fans``).

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
import operator
import random
from fractions import Fraction
from functools import cached_property

import numpy as np

from .forms import as_fraction
from .simplices import Simplex

__all__ = [
    "DIAGONAL",
    "CRISSCROSS",
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
        # exact coordinates as Python ints: keys of the duplicate check
        # (hashing a Fraction is slow), and the numerators and denominators
        # that scaled_points reads
        exact = [(x.numerator, y.numerator, x.denominator, y.denominator) for x, y in self.vertices]
        seen: dict[tuple[int, int, int, int], int] = {}
        for i, key in enumerate(exact):
            j = seen.setdefault(key, i)
            if j != i:
                raise ValueError(f"vertex {i} duplicates vertex {j} at {self.vertices[i]}")
        exact_array = np.array(exact, dtype=object).reshape(-1, 4)
        self._numerators, self._denominators = exact_array[:, :2], exact_array[:, 2:]

        checked: list[tuple[int, int, int]] = []
        invalid = None
        cell_keys: dict[frozenset, int] = {}
        for ci, cell in enumerate(cells):
            try:
                tri = tuple(map(operator.index, cell))
            except TypeError:
                bad = next(x for x in cell if not hasattr(type(x), "__index__"))
                invalid = f"cell {ci} has a non-integer vertex id {bad!r}"
                break
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

        corners = np.array(self.cells, dtype=np.intp)
        nc = len(corners)
        degree = np.bincount(corners.ravel(), minlength=nv)
        if (degree == 0).any():
            raise ValueError(f"vertex {int(np.argmax(degree == 0))} is not referenced by any cell")

        # the half-edge table, sorted once by undirected edge; stable, so
        # the half-edges of an edge keep cell order
        origin, target = corners.ravel(), corners[:, [1, 2, 0]].ravel()
        lo, hi = np.minimum(origin, target), np.maximum(origin, target)
        key = lo * nv + hi
        order = np.argsort(key, kind="stable")
        head = np.flatnonzero(np.r_[True, np.diff(key[order]) != 0])
        shared = np.diff(np.r_[head, 3 * nc])
        third = order[head[shared > 2] + 2]
        if len(third):
            h = int(third.min())  # the first edge, in cell order, to get a third cell
            raise ValueError(f"edge ({lo[h]}, {hi[h]}) is shared by more than two cells")
        self.edges: np.ndarray = np.column_stack([lo[order[head]], hi[order[head]]])
        twin = np.full(3 * nc, -1, dtype=np.intp)
        pair = head[shared == 2]
        twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]

        self._check_no_hanging_vertices()
        # edge-connected: hook the root of each tree of cells under the lower
        # root across a shared edge and jump every cell to its root, until no
        # shared edge joins two trees; a root is the lowest cell of its tree
        across = np.column_stack([order[pair], order[pair + 1]]) // 3
        root = np.arange(nc)
        while (root[across[:, 0]] != root[across[:, 1]]).any():
            lower, higher = np.sort(root[across], axis=1).T
            np.minimum.at(root, higher, lower)
            while (root[root] != root).any():
                root = root[root]
        if root.any():
            raise ValueError("mesh is not edge-connected")

        boundary = np.zeros(nv, dtype=bool)
        boundary[origin[twin < 0]] = boundary[target[twin < 0]] = True
        self.interior_vertices: list[int] = np.flatnonzero(~boundary).tolist()
        self.fan_start, self.fan_cells = _fans(origin, twin, degree)

        if self.interior_vertices:
            a, b = self.edges.T
            reach = np.zeros(nv, dtype=bool)
            reach[a[~boundary[b]]] = reach[b[~boundary[a]]] = True
            lonely = np.flatnonzero(boundary & ~reach)
            if len(lonely):
                raise ValueError(f"boundary vertex {lonely[0]} has no edge to an interior vertex")
        else:
            self.warnings.append("mesh has no interior vertices")

        self.euler_characteristic = nv - len(self.edges) + nc
        if self.euler_characteristic != 1:
            self.warnings.append(
                f"Euler characteristic {self.euler_characteristic} != 1 (not a disk)"
            )

        self._simplices: list[Simplex | None] = [None] * nc

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
        num, den = self.scaled_points(self.edges)
        d = num[:, 1] - num[:, 0]
        # Python int division rounds each exact squared length once, as
        # float(Fraction); rounding keeps the order, so the max is the same
        return math.sqrt(max(((d * d).sum(axis=1) / (den * den)).tolist()))

    # -- validation helpers ----------------------------------------------

    def _check_no_hanging_vertices(self) -> None:
        """No vertex may lie in the open interior of another cell's edge.

        Candidates come from a uniform bucket grid (``_edge_candidates``);
        a float collinearity filter narrows them and the exact integer
        test (``scaled_points``) confirms, in edge order then vertex order.
        """
        # Python int division rounds once, as float(Fraction)
        pts = (self._numerators / self._denominators).astype(float)
        e, v = _edge_candidates(pts, self.edges)
        a, b = self.edges[e].T
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
        order = np.lexsort((v[suspicious], e[suspicious]))
        e, v = e[suspicious][order], v[suspicious][order]
        num, _ = self.scaled_points(np.column_stack([self.edges[e], v]))
        ex, rv = num[:, 1] - num[:, 0], num[:, 2] - num[:, 0]
        dt, l2 = (rv * ex).sum(axis=1), (ex * ex).sum(axis=1)
        inside = (rv[:, 0] * ex[:, 1] == rv[:, 1] * ex[:, 0]) & (dt > 0) & (dt < l2)
        if inside.any():
            k = np.argmax(inside)
            ia, ib = self.edges[e[k]].tolist()
            raise ValueError(f"vertex {v[k]} lies inside edge ({ia}, {ib}): nonconforming mesh")


def _fans(origin: np.ndarray, twin: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, ...]:
    """(fan_start, fan_cells): the cells around each vertex in fan order, as a CSR.

    Half-edge h is also the corner of its origin v in cell (v, p, q).  The
    next corner around v is across the exit edge (q, v): the twin of the
    cell's previous half-edge, or the twin's successor where two cells
    overlap.  A fan starts at the corner whose entry edge (v, p) has no
    twin, or else in v's lowest cell, and all walks advance together, one
    fan position per step.  A star that is not one fan raises for its
    lowest vertex: "inconsistent" for a walk back to its boundary start,
    else "pinched".
    """
    nv, nh = len(degree), len(origin)
    half = np.arange(nh).reshape(-1, 3)
    following, previous = half[:, [1, 2, 0]].ravel(), half[:, [2, 0, 1]].ravel()
    across = twin[previous]
    succ = np.where(
        across < 0, -1, np.where(origin[across] == origin, across, following[across])
    )
    fan_start = np.r_[0, np.cumsum(degree)]
    start = np.argsort(origin, kind="stable")[fan_start[:-1]]  # each vertex's lowest cell
    opening = np.flatnonzero(twin < 0)
    start[origin[opening]] = opening
    starts = np.bincount(origin[opening], minlength=nv)

    rank = np.full(nh, -1, dtype=np.intp)
    rank[start] = 0
    walker, current = np.arange(nv), start
    inconsistent = np.zeros(nv, dtype=bool)
    pinched = starts > 1
    for k in range(1, int(degree.max()) + 1):
        step = succ[current]
        fresh = (step >= 0) & (rank[step] < 0)
        closed = step == start[walker]
        inconsistent[walker[closed & (starts[walker] == 1)]] = True
        pinched[walker[(step >= 0) & ~fresh & ~closed]] = True
        walker, current = walker[fresh], step[fresh]
        rank[current] = k
        if not len(walker):
            break
    pinched |= np.bincount(origin[rank >= 0], minlength=nv) != degree
    bad = np.flatnonzero(pinched | inconsistent)
    if len(bad):
        kind = "an inconsistent" if inconsistent[bad[0]] else "a pinched (multi-fan)"
        raise ValueError(f"vertex {bad[0]} has {kind} star")
    fan_cells = np.empty(nh, dtype=np.intp)
    fan_cells[fan_start[origin] + rank] = half.ravel() // 3
    return fan_start, fan_cells


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

    grid = [Fraction(i, m) for i in range(m + 1)]
    vertices: list[tuple[Fraction, Fraction]] = [(x, y) for y in grid for x in grid]
    if pattern == CRISSCROSS:  # square (i, j) gets center vertex (m + 1)^2 + j m + i
        mid = [Fraction(2 * i + 1, 2 * m) for i in range(m)]
        vertices += [(x, y) for y in mid for x in mid]
    flipped = {(m - 1, 0), (0, m - 1)}
    cells: list[tuple[int, int, int]] = []
    for j in range(m):
        for i in range(m):
            bl, br = gid(i, j), gid(i + 1, j)
            tr, tl = gid(i + 1, j + 1), gid(i, j + 1)
            if pattern == CRISSCROSS:
                c = (m + 1) ** 2 + j * m + i
                cells += [(bl, br, c), (br, tr, c), (tr, tl, c), (tl, bl, c)]
            elif (i, j) in flipped:
                cells += [(bl, br, tl), (br, tr, tl)]
            else:
                cells += [(bl, br, tr), (bl, tr, tl)]

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

"""Planar triangulations, structured generators, and mesh file I/O.

A Triangulation validates its input on construction and names the first
offending entity.  It rejects, in this order: duplicate vertices; cells
with non-integer ids, without three distinct vertices, with missing
vertices or with the vertex set of an earlier cell; degenerate cells (the
others are oriented positively); a mesh without cells; unreferenced
vertices; edges of more than two cells; a boundary vertex inside a
boundary edge; cells that are not edge-connected; a vertex star that is
not one fan (disk or half-disk); crossing boundary edges; and two
counterclockwise boundary loops.  A mesh without interior vertices (a
single triangle, a strip) or that is not a disk is accepted and flagged
in ``warnings``.  A boundary vertex with no edge to an interior vertex
(a corner of a raw Delaunay mesh) is fine (see ``globalspace``).

These checks certify that no two cells overlap, with no scan over all
vertices and edges.  With positive cells, the number of cells over a point
off the edges is the winding number of the boundary loops around it.
Boundary edges that meet only at shared ends, around single-fan stars,
form disjoint simple loops.  One loop (a disk) winds 0 or 1 times around
every point (Floater, Math. Comp. 72, 2003; Lipman, SIAM J. Imaging Sci.
7, 2014).  Of several, only one may run counterclockwise: the others are
holes, winding 0 or -1 times, so the count stays 0 or 1.  (Two
counterclockwise loops can bound a branched cover that folds the mesh.)

The mesh is integer index tables: ``cells`` is the one read-only
(cells, 3) intp array, with no per-cell tuple.  The topology is one table
of the 3 * cells half-edges, half-edge 3c + i running from ``cells[c, i]``
to ``cells[c, (i + 1) % 3]``, sorted once by undirected edge: that gives
the sorted ``edges``, each half-edge's twin (-1 on the boundary), the
intp array ``interior_vertices`` and the cell connectivity.
The cells around vertex v, in fan order, are stored once as a CSR:
``fan_cells[fan_start[v]:fan_start[v + 1]]`` (see ``_fans``).

The mesh file format is line based and exact:

    ndim 2
    vertices N
    x y            (N lines; integers, exact decimals, or p/q fractions)
    cells M
    i j k          (M lines; 0-based vertex ids)

Coordinates with terminating decimal expansions are written as decimals,
anything else as p/q, so format/parse round-trips reproduce coordinates
bit for bit.

The structured unit-square generators produce the DIAGONAL pattern
(bottom-left to top-right diagonals, flipped in the corner squares
(m - 1, 0) and (0, m - 1): the flip defines the pattern, and is not needed
for validity) and the CRISSCROSS pattern (four triangles per square around
a center vertex).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .forms import as_fraction

__all__ = [
    "DIAGONAL",
    "CRISSCROSS",
    "Triangulation",
    "check_mesh_parameter",
    "generate_square_mesh",
    "read_mesh",
    "parse_mesh",
    "format_mesh",
]

DIAGONAL = "diagonal"
CRISSCROSS = "crisscross"


class Triangulation:
    """A validated conforming triangulation of a planar domain: exact Fraction
    ``vertices``, the read-only (cells, 3) intp array ``cells``, each row
    counterclockwise (clockwise input (a, b, c) is stored as (a, c, b)), and
    the ascending intp array ``interior_vertices``."""

    def __init__(self, vertices, cells):
        self.vertices: list[tuple[Fraction, Fraction]] = [
            (as_fraction(v[0]), as_fraction(v[1])) for v in vertices
        ]
        self.warnings: list[str] = []
        nv = len(self.vertices)
        # exact coordinates as Python ints: keys of the duplicate check (hashing
        # a Fraction is slow), and the numerators and denominators of scaled_points
        exact = [x.as_integer_ratio() + y.as_integer_ratio() for x, y in self.vertices]
        lowest = dict(zip(exact[::-1], range(nv - 1, -1, -1)))  # each point's lowest vertex
        if len(lowest) < nv:
            i, j = next((i, j) for i, j in enumerate(map(lowest.get, exact)) if j != i)
            raise ValueError(f"vertex {i} duplicates vertex {j} at {self.vertices[i]}")
        exact_array = np.fromiter(chain.from_iterable(exact), object, 4 * nv).reshape(nv, 4)
        self._numerators, self._denominators = exact_array[:, ::2], exact_array[:, 1::2]

        checked, invalid = _cell_ids(cells, nv)
        # orientation from float signed areas, exact where one is within its
        # rounding bound (48 ulp of the largest coordinate squared) of 0; a
        # degenerate cell is reported before an invalid cell that follows it
        self._points = (self._numerators / self._denominators).astype(float)  # rounded once
        area2 = _signed_area2(self._points[checked])
        unsure = np.abs(area2) <= 1e-13 * np.abs(self._points[checked]).max(axis=(1, 2)) ** 2
        area2[unsure] = np.sign(_signed_area2(self.scaled_points(checked[unsure])[0])).astype(float)
        degenerate = np.flatnonzero(area2 == 0)
        if len(degenerate):
            ci = int(degenerate[0])
            raise ValueError(f"cell {ci} with vertices {tuple(checked[ci].tolist())} is degenerate")
        if invalid is not None:
            raise ValueError(invalid)
        if not len(checked):
            raise ValueError("mesh has no cells")
        cells = np.where((area2 < 0)[:, None], checked[:, [0, 2, 1]], checked)
        cells.flags.writeable = False
        self.cells: np.ndarray = cells

        nc = len(cells)
        degree = np.bincount(cells.ravel(), minlength=nv)
        if (degree == 0).any():
            raise ValueError(f"vertex {int(np.argmax(degree == 0))} is not referenced by any cell")

        # the half-edge table, sorted once by undirected edge; stable, so
        # the half-edges of an edge keep cell order
        origin, target = cells.ravel(), cells[:, [1, 2, 0]].ravel()
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

        rim = origin[twin < 0], target[twin < 0]  # the boundary half-edges
        inside, crossing = self._boundary_meetings(*rim)
        if inside is not None:
            raise ValueError(inside)
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
        boundary[rim[0]] = boundary[rim[1]] = True
        self.interior_vertices: np.ndarray = np.flatnonzero(~boundary)
        self.fan_start, self.fan_cells = _fans(origin, twin, degree)
        if crossing is not None:
            raise ValueError(crossing)
        self._check_boundary_loops(*rim)

        if not len(self.interior_vertices):
            self.warnings.append("mesh has no interior vertices")

        self.euler_characteristic = nv - len(self.edges) + nc
        if self.euler_characteristic != 1:
            self.warnings.append(
                f"Euler characteristic {self.euler_characteristic} != 1 (not a disk)"
            )

    # -- derived geometry ------------------------------------------------

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
        """Largest edge length over the cells, from the exact squared lengths."""
        num, den = self.scaled_points(self.edges)
        d = num[:, 1] - num[:, 0]
        # Python int division rounds each exact squared length once, as
        # float(Fraction); rounding keeps the order, so the max is the same
        return math.sqrt(max(((d * d).sum(axis=1) / (den * den)).tolist()))

    # -- validation helpers ----------------------------------------------

    def _boundary_meetings(self, a: np.ndarray, b: np.ndarray) -> tuple[str | None, str | None]:
        """Messages for the first boundary vertex inside a boundary edge and the
        first two boundary edges that cross, in edge order, or None.

        The boundary edges run from a to b; exact integer orientations
        (``scaled_points``) decide each candidate pair from ``_near_pairs``.
        """
        if not len(a):  # a closed surface, which the fan check rejects
            return None, None
        i, j = _near_pairs(self._points[a], self._points[b])
        num, _ = self.scaled_points(np.column_stack([a[i], b[i], a[j], b[j]]))
        # per pair: edge i with each end of edge j, then edge j with each end of edge i
        p, u, v = num[:, [0, 0, 2, 2]], num[:, [1, 1, 3, 3]], num[:, [2, 3, 0, 1]]
        turn = _signed_area2(np.stack([p, u, v], axis=2))
        along, length2 = ((u - p) * (v - p)).sum(axis=2), ((u - p) ** 2).sum(axis=2)
        hit = (turn == 0) & (along > 0) & (along < length2)
        cross = (turn[:, 0] * turn[:, 1] < 0) & (turn[:, 2] * turn[:, 3] < 0)
        nv = len(self.vertices)
        key = np.minimum(a, b) * nv + np.maximum(a, b)  # sorts as self.edges
        inside = crossing = None
        if hit.any():
            edge = key[np.column_stack([i, i, j, j])[hit]]
            vertex = np.column_stack([a[j], b[j], a[i], b[i]])[hit]
            k = np.lexsort((vertex, edge))[0]
            (e0, e1), v = divmod(edge[k], nv), vertex[k]
            inside = f"vertex {v} lies inside edge ({e0}, {e1}): nonconforming mesh"
        if cross.any():
            first, second = np.sort(np.column_stack([key[i], key[j]])[cross], axis=1).T
            k = np.lexsort((second, first))[0]
            (e0, e1), (f0, f1) = divmod(first[k], nv), divmod(second[k], nv)
            crossing = f"boundary edges ({e0}, {e1}) and ({f0}, {f1}) cross: folded mesh"
        return inside, crossing

    def _check_boundary_loops(self, a: np.ndarray, b: np.ndarray) -> None:
        """At most one boundary loop runs counterclockwise.

        Runs once every star is one fan, so the boundary edges from a to b form loops.
        """
        n = len(a)
        loop, step = np.arange(n), np.argsort(a)[np.searchsorted(np.sort(a), b)]
        for _ in range(n.bit_length()):  # each loop is named by its lowest edge
            loop, step = np.minimum(loop, loop[step]), step[step]
        heads = np.flatnonzero(loop == np.arange(n))
        if len(heads) > 1:  # the cells' positive area makes one loop counterclockwise
            num, den = self.scaled_points(np.column_stack([a, b]))
            twice = num[:, 0, 0] * num[:, 1, 1] - num[:, 0, 1] * num[:, 1, 0]
            area = [sum(map(Fraction, twice[loop == h], den[loop == h] ** 2)) for h in heads]
            outer = [h for h, s in zip(heads, area) if s > 0]
            if len(outer) > 1:
                raise ValueError(
                    f"boundary loops through vertices {a[outer[0]]} and {a[outer[1]]} "
                    "both run counterclockwise: folded mesh"
                )


def _signed_area2(points: np.ndarray) -> np.ndarray:
    """Twice the signed areas of triangles (..., 3, 2): positive when counterclockwise."""
    e1, e2 = points[..., 1, :] - points[..., 0, :], points[..., 2, :] - points[..., 0, :]
    return e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]


def _cell_ids(cells, nv: int) -> tuple[np.ndarray, str | None]:
    """The cells before the first invalid one as an (n, 3) id array, and its message
    (None if all are valid).  Checked in order: integer ids, three distinct
    vertices, existing vertices, a vertex set no earlier cell has.
    """
    cells = cells if isinstance(cells, np.ndarray) else list(cells)
    try:
        ids = np.asarray(cells)
    except ValueError:  # cells of different lengths
        ids = np.empty(0)
    stop = len(cells)
    if not (ids.ndim == 2 and ids.shape[1] == 3 and ids.dtype.kind in "iu"):
        # not an integer (n, 3) array: cut it before the first cell that is not three integers
        ok = [len(c) == 3 and all(hasattr(type(x), "__index__") for x in c) for c in cells]
        stop = ok.index(False) if False in ok else stop
        ids = np.array([list(map(operator.index, c)) for c in cells[:stop]]).reshape(stop, 3)
    distinct = (ids[:, 0] != ids[:, 1]) & (ids[:, 1] != ids[:, 2]) & (ids[:, 2] != ids[:, 0])
    present = ((ids >= 0) & (ids < nv)).all(axis=1)
    good = np.flatnonzero(distinct & present)
    # cells with the same vertices sort together, lower cells first: the first
    # repeated cell follows the lowest of its group
    key = np.sort(ids[good].astype(np.intp), axis=1)
    order = np.lexsort((key[:, 2], key[:, 0] * nv + key[:, 1]))
    same = (key[order[1:]] == key[order[:-1]]).all(axis=1)
    earlier = np.full(stop, -1)
    earlier[good[order[1:][same]]] = good[order[:-1][same]]
    bad = np.flatnonzero(~distinct | ~present | (earlier >= 0))
    stop = int(bad[0]) if len(bad) else stop
    if stop == len(cells):
        return ids.astype(np.intp), None
    # name the failure of the first invalid cell
    odd = [x for x in cells[stop] if not hasattr(type(x), "__index__")]
    tri = () if odd else tuple(map(operator.index, cells[stop]))
    missing = [v for v in tri if not 0 <= v < nv]
    if odd:
        invalid = f"cell {stop} has a non-integer vertex id {odd[0]!r}"
    elif len(tri) != 3 or len(set(tri)) != 3:
        invalid = f"cell {stop} must have three distinct vertices, got {tri}"
    elif missing:
        invalid = f"cell {stop} references missing vertex {missing[0]}"
    else:
        invalid = f"cell {stop} duplicates cell {earlier[stop]}"
    return ids[:stop].astype(np.intp), invalid


def _near_pairs(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of segments from p to q whose float bounding boxes meet.

    Each segment is sampled at most half a bucket width apart, in buckets
    one mean segment wide: two segments that meet have samples in the same
    or adjacent buckets.  Rounding keeps the order of exact coordinates, so
    their float boxes overlap too.
    """
    n = len(p)
    d, low, high = q - p, np.minimum(p, q), np.maximum(p, q)
    length = np.hypot(d[:, 0], d[:, 1])
    corner = low.min(axis=0)
    width = max(float(length.mean()), float((high.max(axis=0) - corner).max()) / n) or 1.0
    steps = np.maximum(np.ceil(2 * length / width).astype(np.intp), 1)
    seg = np.repeat(np.arange(n), steps + 1)
    t = (np.arange(len(seg)) - np.repeat(np.cumsum(steps + 1) - steps - 1, steps + 1)) / steps[seg]
    # columns from 0 with one spare: a bucket's neighbours stay in its row or in none
    cell = np.floor((p[seg] + t[:, None] * d[seg] - corner) / width).astype(np.int64) + 1
    cols = int(cell[:, 1].max()) + 2
    bucket, owner = np.divmod(np.unique((cell[:, 0] * cols + cell[:, 1]) * n + seg), n)
    near = (np.arange(-1, 2)[:, None] * cols + np.arange(-1, 2)).ravel()
    probe = (bucket[:, None] + near).ravel()
    start = np.searchsorted(bucket, probe, side="left")
    count = np.searchsorted(bucket, probe, side="right") - start
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    i, j = np.repeat(np.repeat(owner, len(near)), count), owner[np.repeat(start, count) + offset]
    i, j = np.divmod(np.unique(i[i < j] * n + j[i < j]), n)
    meet = ((low[i] <= high[j]) & (low[j] <= high[i])).all(axis=1)
    return i[meet], j[meet]


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


def check_mesh_parameter(m: int) -> None:
    """Raise ValueError unless m is a valid ``generate_square_mesh`` parameter."""
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"mesh parameter m must be an integer >= 2, got {m}")


def generate_square_mesh(m: int, pattern: str = DIAGONAL) -> Triangulation:
    """Uniform triangulation of the unit square with m x m subsquares.

    DIAGONAL's flipped corner squares define the pattern, which the pinned
    tables and ``basis`` dumps follow; a parallel-diagonal mesh is valid too.
    """
    check_mesh_parameter(m)
    if pattern not in (DIAGONAL, CRISSCROSS):
        raise ValueError(f"unknown mesh pattern {pattern!r}")

    # vertices as an iterator: Triangulation keeps its own tuples
    grid = [Fraction(i, m) for i in range(m + 1)]
    vertices = ((x, y) for y in grid for x in grid)
    # the corners of square (i, j), numbered j m + i; vertex (i, j) is j (m + 1) + i
    bl = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()
    br, tl, tr = bl + 1, bl + m + 1, bl + m + 2
    if pattern == CRISSCROSS:  # square (i, j) gets center vertex (m + 1)^2 + j m + i
        mid = [Fraction(2 * i + 1, 2 * m) for i in range(m)]
        vertices = chain(vertices, ((x, y) for y in mid for x in mid))
        c = (m + 1) ** 2 + np.arange(m * m)
        cells = np.column_stack([bl, br, c, br, tr, c, tr, tl, c, tl, bl, c])
    else:
        cells = np.column_stack([bl, br, tr, bl, tr, tl])
        flipped = [m - 1, (m - 1) * m]  # squares (m - 1, 0) and (0, m - 1)
        cells[flipped] = np.column_stack([bl, br, tl, br, tr, tl])[flipped]
    return Triangulation(vertices, cells.reshape(-1, 3))


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
    lines.extend(f"{a} {b} {c}" for a, b, c in tri.cells.tolist())
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

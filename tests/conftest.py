"""Shared test meshes and the closed forms' exact template data."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import Delaunay

from hodgefem.mesh import (
    CRISSCROSS,
    DIAGONAL,
    Triangulation,
    format_mesh,
    generate_square_mesh,
)


def generate_jittered_mesh(m: int, seed: int) -> Triangulation:
    """The DIAGONAL m x m mesh with each interior vertex moved by seeded exact rationals.

    Each coordinate of an interior vertex moves by i / (16 m) with i a
    uniform integer in -3..3 from ``random.Random(seed)``, in vertex
    order, x before y: at most about a fifth of the mesh size, so the
    mesh stays valid while almost every cell gets its own shape.
    """
    base = generate_square_mesh(m, DIAGONAL)
    rng = random.Random(seed)
    vertices = list(base.vertices)
    for i in base.interior_vertices:  # ascending
        x, y = vertices[i]
        dx, dy = (Fraction(rng.randint(-3, 3), 16 * m) for _ in range(2))
        vertices[i] = (x + dx, y + dy)
    return Triangulation(vertices, base.cells)


def write_mesh(tri: Triangulation, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_mesh(tri))


def _coprime(m: int) -> Triangulation:
    """Diagonal m x m mesh, each interior coordinate moved by 1/(16 m p), p a new prime."""
    base = generate_square_mesh(m, DIAGONAL)
    primes = (p for p in range(101, 10**4) if all(p % d for d in range(2, p)))
    interior = set(base.interior_vertices)
    vertices = [
        (x + Fraction(1, 16 * m * next(primes)), y + Fraction(1, 16 * m * next(primes)))
        if i in interior
        else (x, y)
        for i, (x, y) in enumerate(base.vertices)
    ]
    return Triangulation(vertices, base.cells)


def parallel_diagonal_mesh(m: int) -> Triangulation:
    """The m x m unit-square mesh with every diagonal from bottom-left to
    top-right: DIAGONAL without its flipped corners, so corner vertices m
    and m (m + 1) have edges only to boundary vertices."""
    pts = [(Fraction(i, m), Fraction(j, m)) for j in range(m + 1) for i in range(m + 1)]
    cells = []
    for bl in (j * (m + 1) + i for j in range(m) for i in range(m)):
        br, tl, tr = bl + 1, bl + m + 1, bl + m + 2
        cells += [(bl, br, tr), (bl, tr, tl)]
    return Triangulation(pts, cells)


def delaunay_mesh(k: int, seed: int) -> Triangulation:
    """Raw Delaunay triangulation of a jittered k x k lattice in the unit square.

    The points are the (k + 1)^2 lattice points i / k: those on the
    boundary stay where they are, equispaced along each side, and each
    interior coordinate moves by r / (60 k), r uniform in -20..20 from
    ``np.random.default_rng(seed)``, in vertex order, x before y.  Qhull
    only proposes the cells, from the rounded points; ``Triangulation``
    orients them and rejects a degenerate one, and no cell is dropped, so
    an unused point fails as an unreferenced vertex.  Corners often have
    no edge to an interior vertex.
    """
    i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1))
    num = 60 * np.column_stack([i.ravel(), j.ravel()])
    inner = ((num > 0) & (num < 60 * k)).all(axis=1)
    num[inner] += np.random.default_rng(seed).integers(-20, 21, size=(int(inner.sum()), 2))
    cells = Delaunay(num / (60 * k)).simplices
    return Triangulation([(Fraction(x, 60 * k), Fraction(y, 60 * k)) for x, y in num.tolist()], cells)


MESHES = {
    "diagonal4": lambda: generate_square_mesh(4, DIAGONAL),
    "crisscross2": lambda: generate_square_mesh(2, CRISSCROSS),
    "jitter4": lambda: generate_jittered_mesh(4, 1),
    "coprime4": lambda: _coprime(4),
}


@pytest.fixture(params=sorted(MESHES))
def mesh(request) -> Triangulation:
    """Two structured meshes and two exact-rational perturbed ones."""
    return MESHES[request.param]()


def closed_form_templates(tri: Triangulation, prod) -> list[SimpleNamespace]:
    """Every template's exact data from the closed forms, checked against the
    element built form by form.

    ``globalspace._closed_forms`` over ``prod.shapes`` gives each
    template's DOF matrix, gram, Whitney rows and duals as Fractions.  Each
    is asserted equal to the independent reference on the template's
    first cell: the DOF matrix of ``local_element``, and the gram and
    Whitney rows as ``l2_gram`` of the explicitly scaled graph of
    ``reference.planar_element`` with itself and with its hat Green rows,
    whose inverse by ``solve_rational`` gives the duals.  Returns one
    namespace per template: its first ``cell``, that cell's ``simplex``,
    ``matrix`` (its local element) and the closed forms' ``gram``,
    ``whitney`` and ``duals``.
    """
    from hodgefem.element import local_element
    from hodgefem.globalspace import _chebyshev_diameter, _closed_forms, _evaluate
    from reference import exact, l2_gram, planar_element, simplex, solve_rational

    closed = _closed_forms(prod.shapes, *_chebyshev_diameter(prod.shapes))
    gram, whitney, duals, matrix = (
        _evaluate(entries, len(prod.templates), np.frompyfunc(Fraction, 2, 1)).tolist()
        for entries in (closed.gram, closed.whitney, closed.duals, closed.matrix)
    )
    eye = [[Fraction(int(r == c)) for c in range(6)] for r in range(6)]
    out = []
    for i, cell in enumerate(prod.templates.tolist()):
        T = simplex(tri, cell)
        local = local_element(T, 1)
        _, graph, _, _, hat_rows = planar_element(T)
        hats = l2_gram(hat_rows, graph, T)
        assert matrix[i] == exact(local)
        assert gram[i] == l2_gram(graph, graph, T)
        assert whitney[i] == hats
        assert duals[i] == solve_rational(hats, eye)
        out.append(
            SimpleNamespace(
                cell=cell,
                simplex=T,
                matrix=local,
                gram=gram[i],
                whitney=whitney[i],
                duals=duals[i],
            )
        )
    return out

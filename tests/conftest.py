"""Shared test meshes."""

from fractions import Fraction

import pytest

from hodgefem.mesh import (
    CRISSCROSS,
    DIAGONAL,
    Triangulation,
    generate_jittered_mesh,
    generate_square_mesh,
)


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

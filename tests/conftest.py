"""Shared test meshes and the closed forms' exact template data."""

from fractions import Fraction
from types import SimpleNamespace

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


def closed_form_templates(tri: Triangulation, prod) -> list[SimpleNamespace]:
    """Every template's exact data from the closed forms, checked against ``pair``.

    ``globalspace._closed_forms`` over ``prod.shapes`` gives each
    template's DOF matrix, gram, Whitney rows and duals as Fractions.  Each
    is asserted equal to the independent reference on the template's
    first cell: the DOF matrix of ``local_element``, and the gram and
    Whitney rows of one three-group ``ReferenceElement.pair``, whose
    integer Whitney rows give the duals by ``solve_rational``.  Returns one
    namespace per template: its first ``cell``, that cell's ``simplex``,
    ``matrix`` (its local element) and the closed forms' ``gram``,
    ``whitney`` and ``duals``.
    """
    from hodgefem.element import DOFS, GRAM, HATS, local_element, reference_element
    from hodgefem.globalspace import _chebyshev_diameter, _closed_forms, _evaluate, _fraction
    from hodgefem.simplices import as_fractions, solve_rational

    exact = _closed_forms(prod.shapes, *_chebyshev_diameter(prod.shapes))
    gram, whitney, duals, matrix = (
        _evaluate(entries, len(prod.templates), _fraction).tolist()
        for entries in (exact.gram, exact.whitney, exact.duals, exact.matrix)
    )
    ref = reference_element(2, 1)
    out = []
    for i, cell in enumerate(prod.templates.tolist()):
        simplex = tri.simplex(cell)
        local = local_element(simplex, 1)
        _, paired = ref.pair(simplex, (GRAM, DOFS, HATS))
        rows, den = paired[HATS]
        eye = [[den * (r == c) for c in range(6)] for r in range(6)]
        assert matrix[i] == local.exact
        assert gram[i] == as_fractions(*paired[GRAM])
        assert whitney[i] == as_fractions(rows, den)
        assert duals[i] == solve_rational(rows, eye)
        out.append(
            SimpleNamespace(
                cell=cell,
                simplex=simplex,
                matrix=local,
                gram=gram[i],
                whitney=whitney[i],
                duals=duals[i],
            )
        )
    return out

"""The verification suites' own machinery: the paired norm route, the
blocked projection check, the stacked condition numbers, the float shape
test of the random triangles and the report of a singular DOF matrix."""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np

import hodgefem.element
import hodgefem.verify
from hodgefem.cli import main
from hodgefem.element import DofMatrix
from hodgefem.forms import Polynomial, PolyForm, exterior_derivative, koszul
from hodgefem.simplices import Simplex
from hodgefem.verify import (
    MAX_SHAPE_RATIO,
    NORM_CASES,
    _norm_draws,
    _shape_ratio,
    full_suite,
    norm_suite,
    unisolvence_suite,
)

from reference import h1_seminorm_sq, l2_gram, shape_ratio


def test_paired_norm_sides_equal_the_direct_route():
    """Both sides of the norm equality, paired once per (n, k), equal
    ``l2_gram`` and ``(k+1) h1_seminorm_sq`` on each of the suite's draws."""
    seen = dict.fromkeys(NORM_CASES, 0)
    for n, k, S, eta, lhs, rhs in _norm_draws(12, seed=3):
        form = PolyForm(n, k + 1, {a: Polynomial.constant(n, c) for a, c in eta.items()})
        mu = koszul(form)
        dmu = exterior_derivative(mu)
        assert lhs == l2_gram([dmu], [dmu], S)[0][0]
        assert rhs == (k + 1) * h1_seminorm_sq(mu, S)
        seen[n, k] += 1
    assert seen == dict.fromkeys(NORM_CASES, 12)


def test_norm_suite_sees_a_defect_patched_in_between_calls(monkeypatch):
    """No pairing outlives a call: a wrong d patched in after a first call
    makes the next call fail with a nonzero gap."""
    assert all(r.passed for r in norm_suite(count=3))
    d = hodgefem.verify.exterior_derivative
    monkeypatch.setattr(hodgefem.verify, "exterior_derivative", lambda w: 2 * d(w))
    results = norm_suite(count=3)
    assert [r.passed for r in results] == [False] * len(NORM_CASES)
    for r in results:
        assert r.detail.startswith("gap ") and float(r.detail.split()[1]) > 0
        assert r.line().startswith("FAIL d-norm-equals-sqrt(k+1)-h1")


def test_blocked_projection_check_equals_one_stack(monkeypatch):
    """The projection error over blocks of triangles is bit for bit the
    error of one stacked ``tables`` call, across block boundaries."""
    errors = []
    projection_error = hodgefem.verify._projection_error

    def both(*args):
        blocked = projection_error(*args)
        with monkeypatch.context() as m:
            m.setattr(hodgefem.verify, "PROJECTION_BLOCK", len(args[-1]) + 1)
            errors.append((blocked, projection_error(*args)))
        return blocked

    monkeypatch.setattr(hodgefem.verify, "_projection_error", both)
    block = hodgefem.verify.PROJECTION_BLOCK
    for count in (0, 1, block, 2 * block + 5):
        unisolvence_suite(count=count, seed=1)
    assert len(errors) == 4
    assert errors[0] == (0.0, 0.0)
    for blocked, stacked in errors:
        assert np.float64(blocked).tobytes() == np.float64(stacked).tobytes()


def test_a_nan_in_a_later_projection_block_fails_the_check(monkeypatch):
    """A NaN in any block reaches the reported error, as in one stack."""
    tables = hodgefem.element.ReferenceElement.tables
    calls = []

    def nan_after_the_first_block(self, *args):
        tab = tables(self, *args)
        calls.append(len(tab["weights"]))
        if len(calls) > 1:
            tab["rows"] = np.full_like(tab["rows"], np.nan)
        return tab

    monkeypatch.setattr(hodgefem.element.ReferenceElement, "tables", nan_after_the_first_block)
    monkeypatch.setattr(hodgefem.verify, "PROJECTION_BLOCK", 2)
    results = {r.name: r for r in unisolvence_suite(count=3, seed=0)}
    assert calls == [2, 1]
    check = results["interpolation-projection"]
    assert not check.passed and check.detail == "max coefficient error nan"


def test_full_suite_draws_keep_their_exact_vertices(monkeypatch):
    """The 86 simplices and triangles that ``full_suite(0, 20, 20)`` draws, in
    draw order, pinned by the SHA-256 of their exact vertices: the report's
    exact details do not depend on the draws, so this is what sees them."""
    drawn = []
    for name in ("_rand_simplex", "_rand_triangle"):

        def recording(*args, draw=getattr(hodgefem.verify, name), **kwargs):
            drawn.append(draw(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(hodgefem.verify, name, recording)
    assert all(r.passed for r in full_suite(0, 20, 20))
    text = "\n".join(";".join(",".join(map(str, v)) for v in s.vertices) for s in drawn)
    assert len(drawn) == 86
    digest = "f7c71ad8c4eacbb0c1d23301bddb52beb900f3f7f941c5a0205b23a8ff6dd315"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _singular_second_element(monkeypatch):
    """Patch the suite's ``local_element`` so that the second triangle's DOF
    matrix has row 1 = 3/7 row 0: exactly singular, with a finite float
    condition number.  Returns the list of the float condition numbers seen."""
    local_element = hodgefem.verify.local_element
    conds = []

    def patched(simplex, k):
        matrix = local_element(simplex, k)
        if len(conds) == 1:
            rows = [[7 * v for v in row] for row in matrix.rows]
            rows[1] = [3 * v for v in matrix.rows[0]]
            matrix = DofMatrix(matrix.reference, simplex, matrix.scaling, rows, 7 * matrix.den)
        conds.append(np.linalg.cond(matrix.as_float))
        return matrix

    monkeypatch.setattr(hodgefem.verify, "local_element", patched)
    return conds


def test_an_exactly_singular_dof_matrix_fails_the_cond_check(monkeypatch):
    """The exact solve of a singular DOF matrix raises inside the suite; the
    suite reports it as the failed ``dof-matrix-cond-finite`` check instead."""
    conds = _singular_second_element(monkeypatch)
    results = unisolvence_suite(count=4, seed=0)
    assert len(conds) == 2 and np.isfinite(conds[1])
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("dof-matrix-cond-finite", False, "singular matrix hit")
    ]


def test_verify_exits_one_on_an_exactly_singular_dof_matrix(monkeypatch, tmp_path, capsys):
    """``hodgefem verify`` reports the singular matrix as a failed check with
    exit 1, not as bad usage (exit 2)."""
    _singular_second_element(monkeypatch)
    out = tmp_path / "report.json"
    args = ["verify", "--simplices", "1", "--triangles", "3", "--out", str(out)]
    assert main(args) == 1
    report = json.loads(out.read_text())
    assert report["failed"] == 1
    assert report["checks"][-1] == {
        "name": "dof-matrix-cond-finite",
        "passed": False,
        "detail": "singular matrix hit",
    }
    assert "FAIL dof-matrix-cond-finite: singular matrix hit" in capsys.readouterr().err


def test_stacked_condition_numbers_equal_the_per_matrix_ones(monkeypatch):
    """One ``np.linalg.cond`` of the stacked float DOF matrices equals the
    per-matrix condition numbers bit for bit, and the reported max is theirs."""
    local_element = hodgefem.verify.local_element
    floats = []

    def recording(simplex, k):
        matrix = local_element(simplex, k)
        floats.append(matrix.as_float)
        return matrix

    monkeypatch.setattr(hodgefem.verify, "local_element", recording)
    results = {r.name: r for r in unisolvence_suite(count=40, seed=3)}
    stacked = np.linalg.cond(np.array(floats))
    each = np.array([np.linalg.cond(m) for m in floats])
    assert len(floats) == 40 and stacked.tobytes() == each.tobytes()
    want = f"max cond {float(each.max()):.3e} over 40 triangles"
    assert results["dof-matrix-cond-finite"].detail == want


def test_float_shape_ratio_equals_the_numpy_evaluation():
    """``_shape_ratio`` on integer points over 1024 is bit for bit the numpy
    evaluation of h / inradius on the exact triangle, on draws as
    ``_rand_triangle`` makes them, kept or rejected, in both orientations."""
    rng = random.Random(4)
    kept_draws = 0
    for _ in range(400):
        power = rng.randint(-4, 2)
        ints = [(rng.randint(-64, 64), rng.randint(-64, 64)) for _ in range(3)]
        points = [(x << (power + 4), y << (power + 4)) for x, y in ints]
        verts = [(Fraction(x, 1024), Fraction(y, 1024)) for x, y in points]
        try:
            T = Simplex(verts)
        except ValueError:
            continue
        ccw = [tuple(int(x * 1024) for x in v) for v in T.vertices]
        got = _shape_ratio(ccw, 1024)
        assert np.float64(got).tobytes() == np.float64(shape_ratio(T)).tobytes()
        kept_draws += got <= MAX_SHAPE_RATIO
    assert 0 < kept_draws < 400

"""The verification suites' own machinery: the paired norm route and the
blocked projection check."""

import hashlib

import numpy as np

import hodgefem.element
import hodgefem.verify
from hodgefem.forms import Polynomial, PolyForm, exterior_derivative, koszul
from hodgefem.verify import NORM_CASES, _norm_draws, full_suite, norm_suite, unisolvence_suite

from reference import h1_seminorm_sq, l2_gram


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

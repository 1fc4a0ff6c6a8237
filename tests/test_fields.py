"""Finite-difference consistency checks for the manufactured fields."""

import numpy as np
import pytest

from hodgefem.fields import DEFAULT_FIELD, FIELDS, as_callback, get_field

EX = np.array([1.0, 0.0])
EY = np.array([0.0, 1.0])


def _fd_partials(func, pts, h=1e-6):
    """Central-difference x and y partials of a scalar or vector field."""
    dx = (func(pts + h * EX) - func(pts - h * EX)) / (2 * h)
    dy = (func(pts + h * EY) - func(pts - h * EY)) / (2 * h)
    return dx, dy


def _interior_points(count=40, seed=7):
    rng = np.random.default_rng(seed)
    return 0.1 + 0.8 * rng.random((count, 2))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rot_and_div_match_finite_differences(name):
    field = get_field(name)
    pts = _interior_points()
    wx, wy = _fd_partials(field.value, pts)
    rot_fd = wx[:, 1] - wy[:, 0]
    div_fd = wx[:, 0] + wy[:, 1]
    assert np.allclose(field.rot(pts), rot_fd, atol=1e-6, rtol=1e-6)
    assert np.allclose(field.div(pts), div_fd, atol=1e-6, rtol=1e-6)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_load_matches_finite_differences(name):
    # f = w + curl(rot w) - grad(div w), curl g = (d_y g, -d_x g)
    field = get_field(name)
    pts = _interior_points()
    rot_x, rot_y = _fd_partials(field.rot, pts)
    div_x, div_y = _fd_partials(field.div, pts)
    f_fd = field.value(pts) + np.stack([rot_y - div_x, -rot_x - div_y], axis=1)
    assert np.allclose(field.f(pts), f_fd, atol=1e-6, rtol=1e-6)


def _edge_points(count=21):
    t = np.linspace(0.05, 0.95, count)
    zero = np.zeros_like(t)
    one = np.ones_like(t)
    return {
        "bottom": np.stack([t, zero], axis=1),
        "top": np.stack([t, one], axis=1),
        "left": np.stack([zero, t], axis=1),
        "right": np.stack([one, t], axis=1),
    }


def test_boundary_flags_match_traces():
    normals = {"bottom": -EY, "top": EY, "left": -EX, "right": EX}
    for name, field in FIELDS.items():
        worst_normal = 0.0
        worst_rot = 0.0
        for edge, pts in _edge_points().items():
            wn = field.value(pts) @ normals[edge]
            worst_normal = max(worst_normal, float(np.max(np.abs(wn))))
            worst_rot = max(worst_rot, float(np.max(np.abs(field.rot(pts)))))
        if field.zero_normal_trace:
            assert worst_normal < 1e-10, name
        else:
            assert worst_normal > 0.1, name
        if field.zero_boundary_rot:
            assert worst_rot < 1e-10, name
        else:
            assert worst_rot > 0.1, name


def test_affine_field_derivatives_are_constant():
    field = get_field("affine")
    pts = _interior_points(10)
    assert np.allclose(field.rot(pts), -4.0)
    assert np.allclose(field.div(pts), 2.0)
    # curl and grad of constants vanish, so the load is the field itself
    assert np.allclose(field.f(pts), field.value(pts))


def test_get_field_rejects_unknown_name():
    assert DEFAULT_FIELD in FIELDS
    assert get_field("polyflow") is FIELDS["polyflow"]
    with pytest.raises(ValueError, match="polyflow"):
        get_field("vortex")


def test_as_callback_shapes_and_sign():
    field = get_field("trigflow")
    cb = as_callback(field)
    pts = _interior_points(12)
    assert np.array_equal(cb.value(pts), field.value(pts))
    d = cb.d(pts)
    delta = cb.delta(pts)
    assert d.shape == (12, 1) and delta.shape == (12, 1)
    assert np.array_equal(d[:, 0], field.rot(pts))
    # the adjoint-sign codifferential of a 1-form is minus the divergence
    assert np.array_equal(delta[:, 0], -field.div(pts))


def test_polyflow_matches_sympy_derivatives_of_its_potentials():
    # w = grad(P(x)P(y)) + curl(X(x)X(y)), curl g = (d_y g, -d_x g)
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    phi = (3 * x**2 - 2 * x**3) * (3 * y**2 - 2 * y**3)
    psi = (x - 2 * x**3 + x**4) * (y - 2 * y**3 + y**4)
    w1, w2 = phi.diff(x) + psi.diff(y), phi.diff(y) - psi.diff(x)
    rot, div = w2.diff(x) - w1.diff(y), w1.diff(x) + w2.diff(y)
    f1 = w1 + rot.diff(y) - div.diff(x)
    f2 = w2 - rot.diff(x) - div.diff(y)
    pts = np.random.default_rng(3).uniform(-0.5, 1.5, (200, 2))
    field = get_field("polyflow")

    def exact(expr):
        return sympy.lambdify((x, y), expr, "numpy")(pts[:, 0], pts[:, 1]) * np.ones(len(pts))

    for got, want in [
        (field.value(pts), np.stack([exact(w1), exact(w2)], axis=1)),
        (field.rot(pts), exact(rot)),
        (field.div(pts), exact(div)),
        (field.f(pts), np.stack([exact(f1), exact(f2)], axis=1)),
    ]:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

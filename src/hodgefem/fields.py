"""Manufactured vector fields for interpolation and convergence studies.

Every field carries vectorized evaluators for its components, its rot
and div, and the forcing f = curl(rot w) - grad(div w) + w of the model
problem, plus flags describing which boundary conditions it satisfies on
the unit square: ``zero_normal_trace`` (w . n = 0, required for the
constrained interpolant to satisfy the boundary div rows) and
``zero_boundary_rot`` (rot w = 0 on the boundary, the natural condition
a discrete solution of the model problem converges against).

The default field "polyflow" is polynomial (degree 7), satisfies both
conditions, and is a gradient-plus-curl superposition with nonzero div
and rot, so every error channel is exercised and all of its DOF and
constraint integrands are integrated exactly by a degree-9 quadrature.
"sinshear" and "affine" do not solve the model problem: the rot of
"sinshear" does not vanish on the boundary, and neither do the rot and
normal trace of "affine".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .element import FormCallback

__all__ = ["SmoothField", "FIELDS", "DEFAULT_FIELD", "get_field", "as_callback"]


@dataclass(frozen=True)
class SmoothField:
    name: str
    value: Callable[[np.ndarray], np.ndarray]
    rot: Callable[[np.ndarray], np.ndarray]
    div: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    zero_normal_trace: bool
    zero_boundary_rot: bool

    @cached_property
    def _callback(self) -> FormCallback:
        rot, div = self.rot, self.div
        return FormCallback(
            value=self.value,
            d=lambda p: rot(p)[:, None],
            delta=lambda p: -div(p)[:, None],
        )


def as_callback(field: SmoothField) -> FormCallback:
    """Adapt a field to the interpolation callback protocol.

    d is the rot (as the single component of a 2-form) and delta is the
    Green-sign codifferential, i.e. minus the divergence.  Memoised per
    field: every call returns the same callback, so the values that
    ``ProductSpace.node_values`` caches for it serve both
    ``global_interpolate(as_callback(field), ...)`` and
    ``error_norms(..., field)``.  That cache trusts the field's functions
    to be pure: the same points give the same values on every call.
    """
    return field._callback


# -- polyflow: polynomial gradient + curl superposition -------------------
#    w = grad(P(x)P(y)) + curl(X(x)X(y))
#    P(t) = 3t^2 - 2t^3   (P' vanishes at t = 0, 1)
#    X(t) = t - 2t^3 + t^4 (X and X'' vanish at t = 0, 1)

def _P(t):
    return t * t * (3.0 - 2.0 * t)


def _P1(t):
    return 6.0 * t * (1.0 - t)


def _P2(t):
    return 6.0 - 12.0 * t


def _X(t):
    return t - 2.0 * t**3 + t**4


def _X1(t):
    return 1.0 - 6.0 * t * t + 4.0 * t**3


def _X2(t):
    return 12.0 * t * (t - 1.0)


def _X3(t):
    return 24.0 * t - 12.0


def _polyflow_value(p):
    x, y = np.ascontiguousarray(p.T)
    return np.stack([_P1(x) * _P(y) + _X(x) * _X1(y), _P(x) * _P1(y) - _X1(x) * _X(y)], axis=1)


def _polyflow_rot(p):
    x, y = np.ascontiguousarray(p.T)
    return -(_X2(x) * _X(y) + _X(x) * _X2(y))


def _polyflow_div(p):
    x, y = p[:, 0], p[:, 1]
    return _P2(x) * _P(y) + _P(x) * _P2(y)


def _polyflow_f(p):
    # w + curl(rot w) - grad(div w), curl g = (d_y g, -d_x g), with
    # rot = -(X''(x)X(y) + X(x)X''(y)), div = P''(x)P(y) + P(x)P''(y), P''' = -12;
    # a component at a time, each potential once
    x, y = np.ascontiguousarray(p.T)
    f = np.empty((len(x), 2))
    P1x, Py, Xx, X1y = _P1(x), _P(y), _X(x), _X1(y)
    f[:, 0] = P1x * Py + Xx * X1y - (_X2(x) * X1y + Xx * _X3(y)) - (-12.0 * Py + P1x * _P2(y))
    del P1x, Py, Xx, X1y
    Px, P1y, X1x, Xy = _P(x), _P1(y), _X1(x), _X(y)
    f[:, 1] = Px * P1y - X1x * Xy + (_X3(x) * Xy + X1x * _X2(y)) - (_P2(x) * P1y - 12.0 * Px)
    return f


# -- sinshear: sine shear profile (zero normal trace only) ----------------

def _sinshear_value(p):
    x, y = p[:, 0], p[:, 1]
    return np.stack(
        [np.sin(np.pi * x) * y * (1.0 - y), np.sin(np.pi * y) * x * (1.0 - x)], axis=1
    )


def _sinshear_rot(p):
    x, y = p[:, 0], p[:, 1]
    return np.sin(np.pi * y) * (1.0 - 2.0 * x) - np.sin(np.pi * x) * (1.0 - 2.0 * y)


def _sinshear_div(p):
    x, y = p[:, 0], p[:, 1]
    return np.pi * np.cos(np.pi * x) * y * (1.0 - y) + np.pi * np.cos(np.pi * y) * x * (
        1.0 - x
    )


def _sinshear_f(p):
    x, y = p[:, 0], p[:, 1]
    c = 1.0 + np.pi * np.pi
    f1 = np.sin(np.pi * x) * (c * y * (1.0 - y) + 2.0)
    f2 = np.sin(np.pi * y) * (c * x * (1.0 - x) + 2.0)
    return np.stack([f1, f2], axis=1)


# -- trigflow: trigonometric gradient + curl superposition ----------------
#    w = grad(cos(pi x) cos(pi y)) + curl(g(x) g(y)),  g(t) = sin^3(pi t)

def _g(t):
    return np.sin(np.pi * t) ** 3


def _g1(t):
    return 3.0 * np.pi * np.sin(np.pi * t) ** 2 * np.cos(np.pi * t)


def _g2(t):
    s = np.sin(np.pi * t)
    return 3.0 * np.pi * np.pi * s * (2.0 - 3.0 * s * s)


def _g3(t):
    s, c = np.sin(np.pi * t), np.cos(np.pi * t)
    return 3.0 * np.pi**3 * c * (2.0 * c * c - 7.0 * s * s)


def _trigflow_value(p):
    x, y = p[:, 0], p[:, 1]
    w1 = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) + _g(x) * _g1(y)
    w2 = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) - _g1(x) * _g(y)
    return np.stack([w1, w2], axis=1)


def _trigflow_rot(p):
    x, y = p[:, 0], p[:, 1]
    return -(_g2(x) * _g(y) + _g(x) * _g2(y))


def _trigflow_div(p):
    x, y = p[:, 0], p[:, 1]
    return -2.0 * np.pi * np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)


def _trigflow_f(p):
    x, y = p[:, 0], p[:, 1]
    c = 1.0 + 2.0 * np.pi * np.pi
    f1 = -c * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) + (
        _g(x) * _g1(y) - _g2(x) * _g1(y) - _g(x) * _g3(y)
    )
    f2 = -c * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) - (
        _g1(x) * _g(y) - _g3(x) * _g(y) - _g1(x) * _g2(y)
    )
    return np.stack([f1, f2], axis=1)


# -- affine: lies in every cell's shape space ------------------------------

def _affine_value(p):
    x, y = p[:, 0], p[:, 1]
    return np.stack([1.0 + x + 2.0 * y, 3.0 + y - 2.0 * x], axis=1)


def _affine_rot(p):
    return np.full(p.shape[0], -4.0)


def _affine_div(p):
    return np.full(p.shape[0], 2.0)


FIELDS: dict[str, SmoothField] = {
    "polyflow": SmoothField(
        name="polyflow",
        value=_polyflow_value,
        rot=_polyflow_rot,
        div=_polyflow_div,
        f=_polyflow_f,
        zero_normal_trace=True,
        zero_boundary_rot=True,
    ),
    "sinshear": SmoothField(
        name="sinshear",
        value=_sinshear_value,
        rot=_sinshear_rot,
        div=_sinshear_div,
        f=_sinshear_f,
        zero_normal_trace=True,
        zero_boundary_rot=False,
    ),
    "trigflow": SmoothField(
        name="trigflow",
        value=_trigflow_value,
        rot=_trigflow_rot,
        div=_trigflow_div,
        f=_trigflow_f,
        zero_normal_trace=True,
        zero_boundary_rot=True,
    ),
    "affine": SmoothField(
        name="affine",
        value=_affine_value,
        rot=_affine_rot,
        div=_affine_div,
        f=_affine_value,  # curl(const) = grad(const) = 0, so f = w
        zero_normal_trace=False,
        zero_boundary_rot=False,
    ),
}

DEFAULT_FIELD = "polyflow"


def get_field(name: str) -> SmoothField:
    try:
        return FIELDS[name]
    except KeyError:
        known = ", ".join(sorted(FIELDS))
        raise ValueError(f"unknown field {name!r} (choose from: {known})") from None

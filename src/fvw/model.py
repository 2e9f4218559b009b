"""Core fire-vegetation-water model: parameters, reaction terms, equilibria, Jacobians.

The state is (f, v, w) = (fire intensity, vegetation amount, water availability).
The reaction part of the dynamics is

    f' = f (alpha v - beta w)
    v' = v (zeta w - eta f)
    w' = gamma - delta v w - epsilon w

with diffusion coefficients c (fire) and d (water) entering only through the
spatial operators handled elsewhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure, ValidationError

_RATE_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta")


@dataclass(frozen=True)
class ModelParams:
    """Immutable bundle of reaction rates and diffusion coefficients.

    All seven reaction rates must be strictly positive; the diffusion
    coefficients c, d must be nonnegative (c = d = 0 recovers the pure ODE system).
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    eta: float
    zeta: float
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        for name in _RATE_NAMES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"rate {name!r} must be a positive finite real, got {value}")
        for name in ("c", "d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"coefficient {name!r} must be a nonnegative finite real, got {value}")


def all_ones(**overrides) -> ModelParams:
    """Convenience constructor: every reaction rate equal to one."""
    base = {name: 1.0 for name in _RATE_NAMES}
    base.update(overrides)
    return ModelParams(**base)


class State(NamedTuple):
    """A point (f, v, w) in phase space. Negative values are representable on purpose."""

    f: float
    v: float
    w: float


class Equilibrium(NamedTuple):
    label: str  # "trivial" or "coexistence"
    point: State


def _product_over(x: float, y: float, z: float) -> float:
    """x y / z for positive x, y, z: the direct form where x y is a normal float, else the quotient of frexp's
    mantissas scaled by their exponents, so that a result in the float range is not lost to x y alone."""
    xy = x * y
    if sys.float_info.min <= xy < math.inf:
        return xy / z
    (mx, ex), (my, ey), (mz, ez) = math.frexp(x), math.frexp(y), math.frexp(z)
    try:
        return math.ldexp(mx * my / mz, ex + ey - ez)
    except OverflowError:  # the result itself is past the float range
        return math.inf


def _coexistence(p: ModelParams) -> tuple[float, float, float, float]:
    """(f*, v*, w*, Upsilon) from one D = sqrt(alpha^2 eps^2 + 4 alpha beta delta gamma) + alpha eps:
    w* = 2 alpha gamma / D, the root without cancellation, f* = zeta w*/eta, v* = beta w*/alpha = 2 beta gamma / D,
    and Upsilon = 2 beta gamma (delta - alpha)/D + eps = (delta - alpha) v* + eps. The float-range rule: D and w*,
    which the rest is computed from, must be normal floats and f* and v* lie in (0, inf), else NumericalFailure.
    Upsilon may still overflow; `stability.upsilon` checks it."""
    tiny = sys.float_info.min
    ae, a2, e2 = p.alpha * p.epsilon, p.alpha**2, p.epsilon**2  # ** raises OverflowError past 1.3e154
    ab = 4.0 * p.alpha * p.beta
    abd = ab * p.delta
    sq, product = a2 * e2, abd * p.gamma
    radicand = sq + product
    if min(ae, a2, e2, sq, ab, abd, product) < tiny or radicand == math.inf:
        # A partial product left the normal range; these factors leave it only where D does.
        cross = 2.0 * (math.sqrt(p.alpha) * math.sqrt(p.gamma)) * (math.sqrt(p.beta) * math.sqrt(p.delta))
        d = math.hypot(ae, cross) + ae
    else:
        d = math.sqrt(radicand) + ae
    if not tiny <= d < math.inf:  # checked before anything divides by D
        raise NumericalFailure(f"the coexistence equilibrium leaves the float range: D = {d}")
    w = _product_over(2.0 * p.alpha, p.gamma, d)
    f, v = _product_over(p.zeta, w, p.eta), _product_over(p.beta, w, p.alpha)
    if not (tiny <= w < math.inf and 0.0 < f < math.inf and 0.0 < v < math.inf):
        raise NumericalFailure(f"the coexistence equilibrium leaves the float range: (f*, v*, w*) = {(f, v, w)}")
    bg = 2.0 * p.beta * p.gamma
    numerator = bg * (p.delta - p.alpha)
    if bg >= tiny and tiny <= abs(numerator) < math.inf:
        return f, v, w, numerator / d + p.epsilon
    # A partial product of Upsilon's numerator left the normal range; (delta - alpha) v* overflows only where
    # Upsilon does.
    return f, v, w, (p.delta - p.alpha) * v + p.epsilon


def coexistence_w(p: ModelParams) -> float:
    return _coexistence(p)[2]


def coexistence_state(p: ModelParams) -> State:
    """Coordinates (f*, v*, w*) of the coexistence equilibrium."""
    return State(*_coexistence(p)[:3])


def equilibria(p: ModelParams) -> tuple[Equilibrium, Equilibrium]:
    """The trivial equilibrium (0, 0, gamma/epsilon) and the coexistence equilibrium."""
    w0 = p.gamma / p.epsilon
    if not 0.0 < w0 < math.inf:  # the float-range rule of `_coexistence`
        raise NumericalFailure(f"the trivial equilibrium leaves the float range: gamma/epsilon = {w0}")
    return Equilibrium("trivial", State(0.0, 0.0, w0)), Equilibrium("coexistence", coexistence_state(p))


def _reaction_terms(p: ModelParams, f, v, w):
    """(f', v', w') under the reaction terms alone, for floats or equal-shape arrays f, v, w."""
    return (
        f * (p.alpha * v - p.beta * w),
        v * (p.zeta * w - p.eta * f),
        p.gamma - p.delta * v * w - p.epsilon * w,
    )


def reaction_rhs(s: State, p: ModelParams) -> State:
    """Time derivative of (f, v, w) under the reaction terms alone."""
    return State(*_reaction_terms(p, *s))


def jacobian(s: State, p: ModelParams) -> np.ndarray:
    """3x3 Jacobian of the reaction right-hand side at an arbitrary state."""
    f, v, w = s
    return np.array(
        [
            [p.alpha * v - p.beta * w, p.alpha * f, -p.beta * f],
            [-p.eta * v, p.zeta * w - p.eta * f, p.zeta * v],
            [0.0, -p.delta * w, -p.delta * v - p.epsilon],
        ]
    )

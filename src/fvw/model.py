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


def _ldexp(m: float, e: int) -> float:
    """m 2^e, exact wherever the result is a normal float; past the float range it is +-inf."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _product_over(x: float, y: float, z: float) -> float:
    """x y / z for positive x, y, z, from frexp's mantissas with the exponents applied once."""
    (mx, ex), (my, ey), (mz, ez) = math.frexp(x), math.frexp(y), math.frexp(z)
    return _ldexp(mx * my / mz, ex + ey - ez)


def _coexistence(p: ModelParams) -> tuple[float, float, float, float]:
    """(f*, v*, w*, Upsilon) from one D = sqrt(alpha^2 eps^2 + 4 alpha beta delta gamma) + alpha eps:
    w* = 2 alpha gamma / D, the root without cancellation, f* = zeta w*/eta, v* = beta w*/alpha and
    Upsilon = 2 beta gamma (delta - alpha)/D + eps. Each formula runs on the rates' frexp mantissas, with D
    scaled by 2^-k to O(1), and each result's binary exponent is applied by one ldexp: the bits of the direct
    formulas wherever their intermediates are normal floats, and no intermediate out of range elsewhere.
    The float-range rule: f*, v* and w* lie in (0, inf), else NumericalFailure. Upsilon may still overflow;
    `stability.upsilon` checks it."""
    (a, ea), (b, eb), (g, eg), (dm, ed), (e, ee), (h, eh), (z, ez) = map(
        math.frexp, (p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.eta, p.zeta)
    )
    s, es = math.frexp(p.delta - p.alpha)
    sq, product = ea + ee, ea + eb + ed + eg  # binary exponents of alpha eps and 4 alpha beta delta gamma
    k = max(sq, (product + 1) // 2)  # 2k >= the exponents of both terms of the radicand, so D 2^-k is O(1)
    d = math.sqrt(math.ldexp(a * a * (e * e), 2 * (sq - k)) + math.ldexp(4.0 * a * b * dm * g, product - 2 * k))
    d += math.ldexp(a * e, sq - k)
    w, ew = 2.0 * a * g / d, ea + eg - k  # w* = w 2^ew
    f, v = _ldexp(z * w / h, ez + ew - eh), _ldexp(b * w / a, eb + ew - ea)
    w = _ldexp(w, ew)
    if not (0.0 < f < math.inf and 0.0 < v < math.inf and 0.0 < w < math.inf):
        raise NumericalFailure(f"the coexistence equilibrium leaves the float range: (f*, v*, w*) = {(f, v, w)}")
    return f, v, w, _ldexp(2.0 * b * g * s / d, eb + eg + es - k) + p.epsilon


def coexistence_state(p: ModelParams) -> State:
    """Coordinates (f*, v*, w*) of the coexistence equilibrium."""
    return State(*_coexistence(p)[:3])


def equilibria(p: ModelParams) -> tuple[Equilibrium, Equilibrium]:
    """The trivial equilibrium (0, 0, gamma/epsilon) and the coexistence equilibrium."""
    w0 = p.gamma / p.epsilon
    if not 0.0 < w0 < math.inf:  # the rule of `_coexistence`: a coordinate lies in (0, inf)
        raise NumericalFailure(f"the trivial equilibrium leaves the float range: gamma/epsilon = {w0}")
    return Equilibrium("trivial", State(0.0, 0.0, w0)), Equilibrium("coexistence", coexistence_state(p))


def _reaction(p: ModelParams):
    """rhs(f, v, w) -> (f', v', w') under the reaction terms alone, for floats or equal-shape arrays f, v, w.
    The rates are read once here and held as closure locals. This is the reaction for rk45 (`simulate._dp45`),
    `reaction_rhs` and the symbolic tests. Two integrators write it out instead, with the same operations in the
    same order, which `TestBitIdentity` checks bit for bit: the rk4 float march `simulate._rk4_march`, which
    spares four Python calls a step, and `simulate_pde`'s stacked in-place kernel, which forms the fire and
    vegetation rows in one numpy call per operation."""
    alpha, beta, gamma, delta, epsilon, eta, zeta = p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.eta, p.zeta

    def rhs(f, v, w):
        return (
            f * (alpha * v - beta * w),
            v * (zeta * w - eta * f),
            gamma - delta * v * w - epsilon * w,
        )

    return rhs


def reaction_rhs(s: State, p: ModelParams) -> State:
    """Time derivative of (f, v, w) under the reaction terms alone."""
    return State(*_reaction(p)(*s))


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

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


def coexistence_w(p: ModelParams) -> float:
    # Rationalized form of (sqrt(alpha^2 eps^2 + 4 alpha beta delta gamma) - alpha eps) / (2 beta delta);
    # avoids cancellation when 4 alpha beta delta gamma << alpha^2 eps^2.
    disc = math.sqrt(p.alpha**2 * p.epsilon**2 + 4.0 * p.alpha * p.beta * p.delta * p.gamma)
    return 2.0 * p.alpha * p.gamma / _nonzero_denominator(disc + p.alpha * p.epsilon)


def _nonzero_denominator(x: float) -> float:
    """x, the denominator sqrt(alpha^2 eps^2 + 4 alpha beta delta gamma) + alpha eps of w* and Upsilon;
    a NumericalFailure where it underflows to 0, as it does for rates near 1e-300."""
    if x == 0.0:
        raise NumericalFailure("the coexistence equilibrium leaves the float range: "
                               "sqrt(alpha^2 epsilon^2 + 4 alpha beta delta gamma) + alpha epsilon underflows to 0")
    return x


def coexistence_state(p: ModelParams) -> State:
    """Coordinates (f*, v*, w*) of the coexistence equilibrium."""
    w = coexistence_w(p)
    return State(p.zeta * w / p.eta, p.beta * w / p.alpha, w)


def equilibria(p: ModelParams) -> tuple[Equilibrium, Equilibrium]:
    """The trivial equilibrium (0, 0, gamma/epsilon) and the coexistence equilibrium."""
    trivial = Equilibrium("trivial", State(0.0, 0.0, p.gamma / p.epsilon))
    coexistence = Equilibrium("coexistence", coexistence_state(p))
    return trivial, coexistence


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

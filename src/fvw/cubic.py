"""Monic cubic polynomials: robust root solving and Routh-Hurwitz style verdicts.

Everything here treats t^3 + a2 t^2 + a1 t + a0 with real coefficients. Roots
are computed in closed form (trigonometric / Cardano on the depressed cubic)
and polished with one-two Newton steps, which keeps full accuracy near
multiple roots where the closed formulas alone lose digits.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple, Optional

from .errors import HypothesisViolated, ValidationError


class MonicCubic(NamedTuple):
    a2: float
    a1: float
    a0: float

    def __call__(self, t):
        return ((t + self.a2) * t + self.a1) * t + self.a0

    def derivative(self, t):
        return (3.0 * t + 2.0 * self.a2) * t + self.a1


class RootSet(NamedTuple):
    """Three complex roots sorted lexicographically by (real part, imaginary part)."""

    roots: tuple[complex, complex, complex]

    def max_real_part(self) -> float:
        return max(r.real for r in self.roots)


class Verdict(enum.Enum):
    ALL_NEGATIVE_REAL_PART = "all_negative_real_part"
    MARGINAL = "marginal"
    HAS_NONNEGATIVE_REAL_PART = "has_nonnegative_real_part"


def _band(x: float, y: float = 0.0) -> float:
    """The relative tolerance 1e-9 (1 + |x| + |y|), summed left to right, of every near-zero test."""
    return 1e-9 * (1.0 + abs(x) + abs(y))


def _gap(p: MonicCubic) -> float:
    """The Routh-Hurwitz gap a1*a2 - a0."""
    return p.a1 * p.a2 - p.a0


def _gap_verdict(p: MonicCubic) -> Verdict:
    """Sign of the Routh-Hurwitz gap, MARGINAL inside the band; coefficient signs unchecked."""
    gap = _gap(p)
    if abs(gap) <= _band(p.a1 * p.a2, p.a0):  # the marginal band around a1*a2 == a0
        return Verdict.MARGINAL
    return Verdict.ALL_NEGATIVE_REAL_PART if gap > 0.0 else Verdict.HAS_NONNEGATIVE_REAL_PART


def _newton_polish(p: MonicCubic, t: float) -> float:
    for _ in range(2):
        dp = p.derivative(t)
        if dp == 0.0:
            break
        step = p(t) / dp
        if not math.isfinite(step):
            break
        t -= step
    return t


def solve_cubic(p: MonicCubic) -> RootSet:
    """All three roots; conjugate symmetry of complex pairs is enforced exactly."""
    if not all(math.isfinite(a) for a in p):
        raise ValidationError("cubic coefficients must be finite")
    a2, a1, a0 = p
    shift = a2 / 3.0
    # Depressed cubic s^3 + q*s + r with t = s - shift.
    q = a1 - a2 * a2 / 3.0
    r = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = -4.0 * q**3 - 27.0 * r * r

    if q == 0.0 and r == 0.0:
        t = -shift
        return RootSet((complex(t), complex(t), complex(t)))

    if disc >= 0.0:
        # Three real roots (possibly repeated); q <= 0 here.
        m = 2.0 * math.sqrt(max(-q / 3.0, 0.0))
        arg = 3.0 * r / (q * m) if q != 0.0 else 0.0
        theta = math.acos(min(1.0, max(-1.0, arg)))
        reals = sorted(
            _newton_polish(p, m * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift)
            for k in range(3)
        )
        return RootSet(tuple(complex(t) for t in reals))

    # One real root + conjugate pair; stable Cardano for the real root.
    half_r = r / 2.0
    root_term = math.sqrt(max(r * r / 4.0 + q**3 / 27.0, 0.0))  # >= 0 up to rounding when disc < 0
    u = -half_r + root_term if half_r <= 0 else -half_r - root_term
    u = math.copysign(abs(u) ** (1.0 / 3.0), u)
    s_real = u + (-q / 3.0 / u if u != 0.0 else 0.0)
    t_real = _newton_polish(p, s_real - shift)
    # Deflate: remaining quadratic is t^2 + (a2 + t_real) t + (a1 + t_real (a2 + t_real)).
    b = a2 + t_real
    c = a1 + t_real * b
    x = -b / 2.0
    y2 = c - x * x
    y = math.sqrt(y2) if y2 > 0.0 else 0.0
    roots = sorted((complex(t_real), complex(x, -y), complex(x, y)), key=lambda z: (z.real, z.imag))
    return RootSet(tuple(roots))


def hurwitz_negative(p: MonicCubic) -> Verdict:
    """Lemma-style verdict: with positive coefficients, all roots lie in the open
    left half plane iff a1*a2 > a0 (strictly, outside the marginal band)."""
    if not (p.a0 > 0.0 and p.a1 > 0.0 and p.a2 > 0.0):
        raise HypothesisViolated(f"hurwitz_negative requires positive coefficients, got {tuple(p)}")
    return _gap_verdict(p)


class ImaginaryRootFactorization(NamedTuple):
    sigma: float  # the purely imaginary pair is +- i sigma, sigma > 0
    real_root: float  # the remaining real root, -a2


def imaginary_root_factorization(p: MonicCubic) -> Optional[ImaginaryRootFactorization]:
    """If a1 > 0 and a1*a2 == a0 (within tolerance), the cubic factors as
    (t^2 + a1)(t + a2); returns (sqrt(a1), -a2) in that case, None otherwise."""
    if p.a1 <= 0.0 or _gap_verdict(p) is not Verdict.MARGINAL:
        return None
    sigma = math.sqrt(p.a1)
    # Factorization residual check at the imaginary root.
    residual = abs(p(complex(0.0, sigma)))
    if residual > _band(sigma**3) * 10.0:
        return None
    return ImaginaryRootFactorization(sigma, -p.a2)

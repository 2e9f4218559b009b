"""Monic cubic polynomials: robust root solving and Routh-Hurwitz style verdicts.

Everything here treats t^3 + a2 t^2 + a1 t + a0 with real coefficients. Every
cubic takes one root-finding path (`solve_cubic`), which keeps small roots beside
large ones to full relative accuracy; `_solve_cubics` takes the same path for many
cubics at once, with the same digits.
"""

from __future__ import annotations

import enum
import math
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import ValidationError


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


class Classification(enum.Enum):
    """Where a cubic's roots lie, so the stability of the equilibrium it linearizes; NEUTRAL is the marginal band."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    NEUTRAL = "neutral"


def _band(x: float, y: float = 0.0) -> float:
    """The relative tolerance 1e-9 (|x| + |y|) of every test of a quantity formed with cancellation, such as x - y:
    with no absolute floor, a change of units by a power of two moves the band with the quantity, bit for bit."""
    return 1e-9 * (abs(x) + abs(y))


def _gap(p: MonicCubic) -> float:
    """The Routh-Hurwitz gap a1*a2 - a0."""
    return p.a1 * p.a2 - p.a0


def _gap_verdict(p: MonicCubic, gap: float) -> Classification:
    """Sign of p's Routh-Hurwitz gap as the caller computed it (`_gap(p)`, or Phi(mu) from
    `phi_cubic` for a mode cubic), NEUTRAL inside p's band; coefficient signs unchecked."""
    if abs(gap) <= _band(p.a1 * p.a2, p.a0):  # the marginal band around a1*a2 == a0
        return Classification.NEUTRAL
    return Classification.STABLE if gap > 0.0 else Classification.UNSTABLE


# Where 2^-161 <= |a2| < 2^160, |a1| < 2^320 and |a0| < 2^480, solve_cubic's scaling exponent e has |e| <= 160,
# so it takes e = 0: both solvers skip the scaling there.
_UNSCALED = (2.0**-161, 2.0**160, 2.0**320, 2.0**480)


def _newton_polish(p: MonicCubic, t: float) -> float:
    """Up to two Newton steps, each kept only if |p(t)| does not grow: near a double
    root p and p' are rounding noise and a step can leave the root altogether."""
    pt = p(t)
    for _ in range(2):
        dp = p.derivative(t)
        if dp == 0.0:
            break
        t_next = t - pt / dp
        p_next = p(t_next)
        if not abs(p_next) <= abs(pt):
            break
        t, pt = t_next, p_next
    return t


def solve_cubic(p: MonicCubic) -> RootSet:
    """All three roots; conjugate symmetry of complex pairs is enforced exactly.

    One real root t comes from the depressed cubic (trigonometric or Cardano form;
    the discriminant's sign only picks the start) and one Newton polish. Where the
    depressed cubic's q^3 or r^2 would leave the float range, that start and polish
    work on the cubic in t / 2^e, for an exact power of two. The other two roots solve
    z^2 - b z + c with c = r1 r2 = -a0/t and b = r1 + r2 taken from the Vieta relation
    of the original coefficients that does not cancel, by the stable quadratic formula.
    """
    if not all(math.isfinite(a) for a in p):
        raise ValidationError("cubic coefficients must be finite")
    a2, a1, a0 = p
    lo, hi2, hi1, hi0 = _UNSCALED
    if lo <= abs(a2) < hi2 and abs(a1) < hi1 and abs(a0) < hi0:
        e, scaled = 0, p
    else:
        # e: binary exponent of the root-size bound max(|a2|, |a1|^(1/2), |a0|^(1/3)); q^3 and r^2
        # scale as 2^(6e), which stays inside the float range for |e| <= 160.
        e = max((-(-math.frexp(a)[1] // k) for k, a in enumerate(p, 1) if a != 0.0), default=0)
        e = e if abs(e) > 160 else 0
        scaled = MonicCubic(math.ldexp(a2, -e), math.ldexp(a1, -2 * e), math.ldexp(a0, -3 * e))
    b2, b1, b0 = scaled
    shift = b2 / 3.0
    # Depressed cubic s^3 + q*s + r with t / 2^e = s - shift.
    q = b1 - b2 * b2 / 3.0
    r = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    if -4.0 * q**3 - 27.0 * r * r >= 0.0:
        # Three real roots (possibly repeated); start from the largest in magnitude.
        m = 2.0 * math.sqrt(max(-q / 3.0, 0.0))
        arg = 3.0 * r / (q * m) if q * m != 0.0 else 0.0
        theta = math.acos(min(1.0, max(-1.0, arg)))
        t = max((m * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)), key=abs)
    else:
        # One real root; stable Cardano.
        half_r = r / 2.0
        root_term = math.sqrt(max(r * r / 4.0 + q**3 / 27.0, 0.0))  # >= 0 up to rounding here
        u = -half_r + root_term if half_r <= 0 else -half_r - root_term
        u = math.copysign(abs(u) ** (1.0 / 3.0), u)
        t = u + (-q / 3.0 / u if u != 0.0 else 0.0) - shift
    t = math.ldexp(_newton_polish(scaled, t), e)
    # Product from a0 (a1 if t = 0); sum from a1 when |t| dominates sqrt|c|, else from a2. A real
    # root far below a complex pair keeps the start's absolute error, near eps |pair|, through the
    # polish; the product then comes from the large end, a1 + t (a2 + t), and t from a0 / c.
    c = a1 + t * (a2 + t)
    if t * t < 2.0**-52 * abs(c):
        t = -a0 / c
    else:
        c = -a0 / t if t != 0.0 else a1
    h = ((a1 - c) / t if t * t > abs(c) else -a2 - t) / 2.0
    if h * h >= c:
        x = h + math.copysign(math.sqrt(h * h - c), h)
        pair = (complex(x), complex(c / x if x != 0.0 else 0.0))
    else:
        y = math.sqrt(c - h * h)
        pair = (complex(h, -y), complex(h, y))
    return RootSet(tuple(sorted((complex(t), *pair), key=lambda z: (z.real, z.imag))))


def _libm(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn (a `math` function) of each element, as `solve_cubic` computes it; `math.pow` calls the C pow that `**`
    calls. numpy's SIMD arccos and power differ from libm in the last bit for some arguments."""
    return np.fromiter(map(fn, x.ravel().tolist(), *map(repeat, args)), float, x.size).reshape(x.shape)


_POWER = np.array([[1], [2], [3]])
_TWO_PI_K = np.array([[2.0 * math.pi * k] for k in range(3)])


def _solve_cubics(a2: np.ndarray, a1: np.ndarray, a0: np.ndarray) -> list[RootSet]:
    """`solve_cubic` of each row (a2[i], a1[i], a0[i]) of finite coefficients, in one array pass that takes the same
    steps in the same order, power-of-two scaling included where some row needs it, and so gives the same bits. libm
    runs once for q^3 and b2^3 together and once for all three trigonometric candidates of every row that takes them."""
    with np.errstate(all="ignore"):  # steps of rows that do not take them are computed and discarded
        lo, *hi = _UNSCALED
        size = np.abs((a2, a1, a0))
        unscaled = size[0].min(initial=lo) >= lo and (size.T < hi).all()
        if unscaled:
            p = MonicCubic(a2, a1, a0)
        else:
            # e as solve_cubic takes it: the largest ceil(exponent / k) over the nonzero coefficients.
            coeffs = np.array((a2, a1, a0))
            nonzero = coeffs != 0.0
            e = np.where(nonzero, -(-np.frexp(coeffs)[1] // _POWER), -(2**31)).max(axis=0)
            e = np.where(nonzero.any(axis=0) & (np.abs(e) > 160), e, 0)
            p = MonicCubic(*np.ldexp(coeffs, -_POWER * e))
        b2, b1, b0 = p
        shift = b2 / 3.0
        q = b1 - b2 * b2 / 3.0
        q3, b2_3 = _libm(math.pow, np.array((q, b2)), 3.0)
        r = 2.0 * b2_3 / 27.0 - b2 * b1 / 3.0 + b0
        t = np.empty_like(q)
        three_real = -4.0 * q3 - 27.0 * r * r >= 0.0
        trig, card = three_real.nonzero()[0], (~three_real).nonzero()[0]
        if len(trig):
            # Three real roots: the trigonometric candidate largest in magnitude, the first of equals.
            qt, rt, st = q[trig], r[trig], shift[trig]
            m = 2.0 * np.sqrt(np.where(0.0 > -qt / 3.0, 0.0, -qt / 3.0))
            arg = np.minimum(np.maximum(np.where(qt * m != 0.0, 3.0 * rt / (qt * m), 0.0), -1.0), 1.0)
            cand = m * _libm(math.cos, (_libm(math.acos, arg) - _TWO_PI_K) / 3.0) - st
            t[trig] = cand[np.abs(cand).argmax(axis=0), np.arange(len(st))]
        if len(card):
            # One real root: stable Cardano.
            qc, rc = q[card], r[card]
            half_r = rc / 2.0
            radicand = rc * rc / 4.0 + q3[card] / 27.0
            root_term = np.sqrt(np.where(0.0 > radicand, 0.0, radicand))
            u = np.where(half_r <= 0, -half_r + root_term, -half_r - root_term)
            u = np.copysign(_libm(math.pow, np.abs(u), 1.0 / 3.0), u)
            t[card] = u + np.where(u != 0.0, -qc / 3.0 / u, 0.0) - shift[card]
        # Newton polish, scaled: a step is kept where |p| does not grow, never where p' = 0; a rejected one recurs.
        pt = p(t)
        for _ in range(2):
            t_next = t - pt / ((3.0 * t + 2.0 * b2) * t + b1)  # p.derivative(t), inline
            p_next = p(t_next)
            keep = np.abs(p_next) <= np.abs(pt)
            np.copyto(t, t_next, where=keep)
            np.copyto(pt, p_next, where=keep)
        if not unscaled:
            t = np.ldexp(t, e)
        # The pair from the Vieta end of the original coefficients that does not cancel, as in solve_cubic.
        c = a1 + t * (a2 + t)
        small = (t * t < 2.0**-52 * np.abs(c)).nonzero()[0]
        c_pair = np.where(t != 0.0, -a0 / t, a1)
        if len(small):  # a real root far below the pair: t from a0 / c, and c kept
            t[small] = -a0[small] / c[small]
            c_pair[small] = c[small]
        c = c_pair
        h = np.where(t * t > np.abs(c), (a1 - c) / t, -a2 - t) / 2.0
        hh = h * h
        s = np.sqrt(np.abs(hh - c))  # sqrt(hh - c) where the pair is real, else sqrt(c - hh): a - b = -(b - a) exactly
        z = np.empty((len(t), 3), dtype=complex)  # set part by part: h + 1j * s would turn h = -0.0 into 0.0
        zr, zi = z.real, z.imag
        zr[:, 0], zr[:, 1], zr[:, 2], zi[:, 0], zi[:, 1], zi[:, 2] = t, h, h, 0.0, -s, s
        real = (hh >= c).nonzero()[0]
        x = h[real] + np.copysign(s[real], h[real])
        zr[real, 1], zr[real, 2], zi[real, 1:] = x, np.where(x != 0.0, c[real] / x, 0.0), 0.0
    # numpy orders complex values by (real, imaginary), the key solve_cubic sorts by; stable keeps ties.
    roots = zip(*np.sort(z, axis=1, kind="stable").T.tolist())
    return list(map(tuple.__new__, repeat(RootSet), zip(roots)))


def hurwitz_negative(p: MonicCubic) -> Classification:
    """Lemma-style verdict: with positive coefficients, all roots lie in the open
    left half plane iff a1*a2 > a0 (strictly, outside the marginal band)."""
    if not (p.a0 > 0.0 and p.a1 > 0.0 and p.a2 > 0.0):
        raise ValidationError(f"hurwitz_negative requires positive coefficients, got {tuple(p)}")
    return _gap_verdict(p, _gap(p))


class ImaginaryRootFactorization(NamedTuple):
    sigma: float  # the purely imaginary pair is +- i sigma, sigma > 0
    real_root: float  # the remaining real root, -a2


def imaginary_root_factorization(p: MonicCubic) -> Optional[ImaginaryRootFactorization]:
    """(sqrt(a1), -a2), the factors of (t^2 + a1)(t + a2), where a1 > 0, a1*a2 is finite (else the band is inf) and
    `_gap_verdict` calls the gap NEUTRAL, which bounds |p(i sqrt(a1))| = |gap| + rounding too; None otherwise."""
    if not (p.a1 > 0.0 and math.isfinite(p.a1 * p.a2)) or _gap_verdict(p, _gap(p)) is not Classification.NEUTRAL:
        return None
    return ImaginaryRootFactorization(math.sqrt(p.a1), -p.a2)

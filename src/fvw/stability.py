"""Linear stability machinery: equilibrium classification, dispersion analysis
in the squared wavenumber mu = |k|^2, diffusion-driven stabilization thresholds,
wave-train construction, and the plant-competition spectrum.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .cubic import MonicCubic, RootSet, Verdict, _band, _gap, _gap_verdict, hurwitz_negative, solve_cubic
from .errors import DefectiveMatrixWarning, DegenerateDiffusion, NoWaveTrain, ValidationError, VarsigmaOutOfRange
from .model import ModelParams, coexistence_state, jacobian


class Classification(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    NEUTRAL = "neutral"


_CLASSIFICATION = {
    Verdict.ALL_NEGATIVE_REAL_PART: Classification.STABLE,
    Verdict.MARGINAL: Classification.NEUTRAL,
    Verdict.HAS_NONNEGATIVE_REAL_PART: Classification.UNSTABLE,
}


@dataclass(frozen=True)
class StabilityVerdict:
    upsilon: float
    classification: Classification
    eigenvalues: RootSet


def upsilon(p: ModelParams) -> float:
    """Scalar discriminant classifying the coexistence equilibrium: stable for
    positive values, unstable for negative, neutral at zero."""
    disc = math.sqrt(p.alpha**2 * p.epsilon**2 + 4.0 * p.alpha * p.beta * p.gamma * p.delta)
    return 2.0 * p.beta * p.gamma * (p.delta - p.alpha) / (disc + p.alpha * p.epsilon) + p.epsilon


def _coexistence_terms(p: ModelParams) -> tuple[float, float, float, float, float, float]:
    """(f*, v*, w*, s = delta v* + epsilon, alpha eta f* v*, delta zeta v* w*) at the coexistence equilibrium."""
    f, v, w = coexistence_state(p)
    return f, v, w, p.delta * v + p.epsilon, p.alpha * p.eta * f * v, p.delta * p.zeta * v * w


def dispersion_coefficients(p: ModelParams, mu: float) -> MonicCubic:
    """Characteristic-polynomial coefficients (a2, a1, a0) of the mode matrix A(mu)."""
    f, v, w, s, fire_veg, veg_water = _coexistence_terms(p)
    a2 = (p.c + p.d) * mu + s
    a1 = p.c * mu * (p.d * mu + s) + fire_veg + veg_water
    a0 = p.c * mu * veg_water + fire_veg * (s + p.d * mu) + p.beta * p.delta * p.eta * f * v * w
    return MonicCubic(a2, a1, a0)


def classify_equilibrium(which: str, p: ModelParams) -> StabilityVerdict:
    """Stability verdict for "E0" (trivial, always unstable) or "E1" (coexistence)."""
    if which == "E0":
        eigs = sorted(
            (-p.beta * p.gamma / p.epsilon, p.gamma * p.zeta / p.epsilon, -p.epsilon)
        )
        return StabilityVerdict(
            upsilon(p), Classification.UNSTABLE, RootSet(tuple(complex(e) for e in eigs))
        )
    if which != "E1":
        raise ValidationError(f"unknown equilibrium {which!r}, expected 'E0' or 'E1'")
    poly = dispersion_coefficients(p, 0.0)
    return StabilityVerdict(upsilon(p), _CLASSIFICATION[_gap_verdict(poly)], solve_cubic(poly))


def mode_matrix(p: ModelParams, mu: float) -> np.ndarray:
    """Linearization about the coexistence equilibrium for a single spatial mode
    with squared wavenumber mu; reduces to the reaction Jacobian at mu = 0."""
    if mu < 0:
        raise ValidationError("mu must be nonnegative")
    A = jacobian(coexistence_state(p), p)
    A[0, 0] -= p.c * mu
    A[2, 2] -= p.d * mu
    return A


class PhiCubic(NamedTuple):
    """Coefficients of Phi(mu) = b3 mu^3 + b2 mu^2 + b1 mu + b0, the
    Routh-Hurwitz gap a1(mu) a2(mu) - a0(mu) as a polynomial in mu."""

    b3: float
    b2: float
    b1: float
    b0: float

    def __call__(self, mu: float) -> float:
        return ((self.b3 * mu + self.b2) * mu + self.b1) * mu + self.b0

    def derivative(self, mu: float) -> float:
        return (3.0 * self.b3 * mu + 2.0 * self.b2) * mu + self.b1


def phi_cubic(p: ModelParams) -> PhiCubic:
    _, _, _, s, fire_veg, veg_water = _coexistence_terms(p)
    b3 = p.c * p.d * (p.c + p.d)
    b2 = p.c * (p.c + 2.0 * p.d) * s
    b1 = p.c * s * s + p.d * veg_water + p.c * fire_veg
    b0 = veg_water * upsilon(p)
    return PhiCubic(b3, b2, b1, b0)


@dataclass(frozen=True)
class DispersionSample:
    mu: float
    a2: float
    a1: float
    a0: float
    phi: float
    eigenvalues: RootSet
    stable: bool


def dispersion_curve(p: ModelParams, mu_grid: Sequence[float]) -> list[DispersionSample]:
    """Sample the mode spectrum over a grid of squared wavenumbers."""
    out = []
    for mu in mu_grid:
        poly = dispersion_coefficients(p, mu)
        verdict = hurwitz_negative(poly)
        out.append(
            DispersionSample(
                mu=float(mu),
                a2=poly.a2,
                a1=poly.a1,
                a0=poly.a0,
                phi=_gap(poly),
                eigenvalues=solve_cubic(poly),
                stable=verdict is Verdict.ALL_NEGATIVE_REAL_PART,
            )
        )
    return out


class DiffusionThreshold(NamedTuple):
    mu_threshold: float
    k0: float


def _phi_positive_root(phi: PhiCubic) -> float:
    """Unique nonnegative root of the strictly increasing Phi when Phi(0) < 0."""
    lo, hi = 0.0, 1.0
    while phi(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e30:
            raise RuntimeError("failed to bracket the root of Phi")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # a root beyond ~1e4 cannot be bracketed to 1e-12 in floats
            break
        if phi(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    mu = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish; Phi' > 0 on mu > 0
        dp = phi.derivative(mu)
        if dp <= 0.0:
            break
        mu -= phi(mu) / dp
    return mu


def find_k0(p: ModelParams) -> DiffusionThreshold:
    """Smallest mu beyond which every higher-frequency mode is linearly stable,
    reported together with the wavenumber k0 = sqrt(mu)."""
    if p.c == 0.0 and p.d == 0.0:
        raise DegenerateDiffusion("find_k0 requires c > 0 or d > 0")
    phi = phi_cubic(p)
    if phi.b0 >= 0.0:
        return DiffusionThreshold(0.0, 0.0)
    mu = _phi_positive_root(phi)
    return DiffusionThreshold(mu, math.sqrt(mu))


@dataclass(frozen=True)
class WaveTrain:
    """Monochromatic periodic orbit of the linearized system: perturbations
    proportional to e^{i(k.x + sigma t)} with |k|^2 = mu_star."""

    mu_star: float
    sigma_star: float
    eigvec: np.ndarray  # unit-norm complex eigenvector X* of A(mu*) for eigenvalue i sigma*
    decay_eigenvalue: float  # -a2(mu*), the remaining real eigenvalue
    span_basis: tuple[np.ndarray, np.ndarray]  # (Re X*, Im X*)


def _inverse_iteration(A: np.ndarray, shift: complex, seed: np.ndarray) -> np.ndarray:
    """Eigenvector for the eigenvalue nearest `shift` via shifted inverse iteration
    with deterministic phase normalization."""
    n = A.shape[0]
    B = A.astype(complex) - shift * np.eye(n)
    x = seed.astype(complex)
    x /= np.linalg.norm(x)
    for _ in range(4):
        try:
            y = np.linalg.solve(B, x)
        except np.linalg.LinAlgError:
            y = np.linalg.solve(B + 1e-14 * np.linalg.norm(A) * np.eye(n), x)
        x = y / np.linalg.norm(y)
    # Largest-magnitude component made real and positive.
    i = int(np.argmax(np.abs(x)))
    x = x * (abs(x[i]) / x[i])
    return x


def find_wavetrain(p: ModelParams) -> WaveTrain:
    """Construct the wave train arising when the coexistence equilibrium is
    unstable (upsilon < 0) and diffusion is present."""
    phi = phi_cubic(p)
    if phi.b0 >= 0.0:
        raise NoWaveTrain("no wave train: Upsilon >= 0")
    if p.c == 0.0 and p.d == 0.0:
        raise DegenerateDiffusion("wave trains require c > 0 or d > 0")
    mu = _phi_positive_root(phi)
    poly = dispersion_coefficients(p, mu)
    sigma = math.sqrt(poly.a1)
    A = mode_matrix(p, mu)
    x = _inverse_iteration(A, 1j * sigma, np.ones(3))
    return WaveTrain(
        mu_star=mu,
        sigma_star=sigma,
        eigvec=x,
        decay_eigenvalue=-poly.a2,
        span_basis=(x.real.copy(), x.imag.copy()),
    )


def slow_eigenvector(p: ModelParams, mu: float) -> np.ndarray:
    """Real unit eigenvector of A(mu) for its real eigenvalue closest to -a2(mu)."""
    A = mode_matrix(p, mu)
    poly = dispersion_coefficients(p, mu)
    w = _inverse_iteration(A, complex(-poly.a2), np.ones(3))
    return w.real / np.linalg.norm(w.real)


def mode_attraction(p: ModelParams, mu: float, theta0: np.ndarray, t: float) -> np.ndarray:
    """Evolve a single-mode amplitude theta(t) = e^{A(mu) t} theta(0).

    Uses the eigenbasis of A(mu); if that basis is ill-conditioned the
    computation falls back to a dense scaling-and-squaring exponential and a
    DefectiveMatrixWarning is issued.
    """
    A = mode_matrix(p, mu)
    theta0 = np.asarray(theta0, dtype=complex)
    lam, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn(
            f"mode matrix eigenbasis condition number {cond:.3g}; using dense exponential",
            DefectiveMatrixWarning,
        )
        return scipy.linalg.expm(A * t) @ theta0
    coeffs = np.linalg.solve(V, theta0)
    return V @ (np.exp(lam * t) * coeffs)


def _check_competition(p: ModelParams, mu: float, varsigma: float) -> None:
    if not (0.0 < varsigma < p.epsilon):
        raise VarsigmaOutOfRange(f"varsigma must lie in (0, epsilon={p.epsilon}), got {varsigma}")
    if mu <= 0.0:
        raise ValidationError("mu must be positive")


def competition_matrix(p: ModelParams, mu: float, varsigma: float) -> np.ndarray:
    """Mode matrix with nonlocal plant competition: the vegetation diagonal
    entry is shifted by varsigma = ell * mu * v_star (ell implied)."""
    _check_competition(p, mu, varsigma)
    L = mode_matrix(p, mu)
    L[1, 1] += varsigma
    return L


@dataclass(frozen=True)
class CompetitionSpectrum:
    varsigma: float
    gamma: float
    mu: float
    q_coeffs: MonicCubic
    eigenvalues: RootSet
    unstable: bool
    continuation_root: float  # real root of Q closest to varsigma


def competition_instability(p: ModelParams, mu: float, varsigma: float) -> CompetitionSpectrum:
    """Spectrum of the competition matrix L(mu, varsigma); for small rainfall
    gamma and small mu a real eigenvalue near varsigma > 0 drives instability."""
    _check_competition(p, mu, varsigma)
    base = dispersion_coefficients(p, mu)
    s = _coexistence_terms(p)[3]
    q = MonicCubic(
        base.a2 - varsigma,
        base.a1 - varsigma * (s + (p.c + p.d) * mu),
        base.a0 - p.c * mu * varsigma * (s + p.d * mu),
    )
    eigs = solve_cubic(q)
    real_roots = [r.real for r in eigs.roots if abs(r.imag) <= _band(abs(r))]
    continuation = min(real_roots, key=lambda r: abs(r - varsigma)) if real_roots else math.nan
    return CompetitionSpectrum(
        varsigma=varsigma,
        gamma=p.gamma,
        mu=mu,
        q_coeffs=q,
        eigenvalues=eigs,
        unstable=eigs.max_real_part() > _band(max(abs(a) for a in q)),
        continuation_root=continuation,
    )

"""Linear stability machinery: equilibrium classification, dispersion analysis
in the squared wavenumber mu = |k|^2, diffusion-driven stabilization thresholds,
wave-train construction, and the plant-competition spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .cubic import (
    Classification, MonicCubic, RootSet, _band, _gap, _gap_verdict, _solve_cubics, imaginary_root_factorization,
    solve_cubic,
)
from .errors import NumericalFailure, ValidationError
from .model import ModelParams, _coexistence, _product_over, coexistence_state, jacobian


@dataclass(frozen=True)
class StabilityVerdict:
    classification: Classification
    eigenvalues: RootSet


def upsilon(p: ModelParams) -> float:
    """Scalar discriminant classifying the coexistence equilibrium: stable for
    positive values, unstable for negative, neutral at zero. One that overflows is a NumericalFailure."""
    ups = _coexistence(p)[3]
    if not math.isfinite(ups):
        raise NumericalFailure(f"Upsilon leaves the float range: {ups}")
    return ups


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
        return (1.5 * (self.b3 * mu) + self.b2) * (2.0 * mu) + self.b1  # 3 b3 or 2 b2 alone may overflow


def _coexistence_terms(p: ModelParams) -> tuple[float, float, float, float, float, float, PhiCubic, float]:
    """The one record of what the linear theory derives from E1: (f*, v*, w*, s = delta v* + epsilon, alpha eta f* v*,
    delta zeta v* w*, Phi, Upsilon), where Phi's b0 = delta zeta v* w* Upsilon carries none of the cancellation of
    a1 a2 - a0."""
    f, v, w, ups = _coexistence(p)
    s, fire_veg, veg_water = p.delta * v + p.epsilon, p.alpha * p.eta * f * v, p.delta * p.zeta * v * w
    phi = PhiCubic(p.c * p.d * (p.c + p.d), p.c * (p.c + 2.0 * p.d) * s,
                   p.c * s * s + p.d * veg_water + p.c * fire_veg, veg_water * ups)
    return f, v, w, s, fire_veg, veg_water, phi, ups


def _mode_cubic(p: ModelParams, terms: tuple, mu: float) -> MonicCubic:
    """The mode cubic of A(mu) from `_coexistence_terms(p)`, for a float mu or elementwise for an array."""
    f, v, w, s, fire_veg, veg_water, *_ = terms
    c_mu, s_d_mu = p.c * mu, s + p.d * mu
    return MonicCubic((p.c + p.d) * mu + s, c_mu * s_d_mu + fire_veg + veg_water,
                      c_mu * veg_water + fire_veg * s_d_mu + p.beta * p.delta * p.eta * f * v * w)


def dispersion_coefficients(p: ModelParams, mu: float) -> MonicCubic:
    """Characteristic-polynomial coefficients (a2, a1, a0) of the mode matrix A(mu); mu may be a
    float or a 1-D array, which gives arrays of coefficients with the same bits per element."""
    return _mode_cubic(p, _coexistence_terms(p), mu)


def _finite(what: str, coeffs: tuple) -> tuple:
    """coeffs, checked ahead of every solve of Phi or of a mode or competition cubic: valid rates whose
    coefficients leave the float range are a numerical failure."""
    if not all(map(math.isfinite, coeffs)):
        raise NumericalFailure(f"{what} is not finite: its coefficients {tuple(coeffs)} leave the float range")
    return coeffs


def classify_equilibrium(which: str, p: ModelParams) -> StabilityVerdict:
    """Stability verdict for "E0" (trivial, always unstable) or "E1" (coexistence). E0's verdict derives no E1,
    and E1's derives it once. E1's is the sign of its Upsilon, `upsilon(p)`, NEUTRAL where that is 0.0: the mode
    cubic's coefficients are positive, and its Routh-Hurwitz gap is delta zeta v* w* Upsilon."""
    if which == "E0":
        eigs = sorted(
            (-_product_over(p.beta, p.gamma, p.epsilon), _product_over(p.gamma, p.zeta, p.epsilon), -p.epsilon)
        )
        if not all(map(math.isfinite, eigs)):
            raise NumericalFailure(f"the trivial equilibrium leaves the float range: eigenvalues {tuple(eigs)}")
        return StabilityVerdict(Classification.UNSTABLE, RootSet(tuple(map(complex, eigs))))
    if which != "E1":
        raise ValidationError(f"unknown equilibrium {which!r}, expected 'E0' or 'E1'")
    terms = _coexistence_terms(p)
    poly, ups = _finite("the mode cubic", _mode_cubic(p, terms, 0.0)), terms[7]
    verdict = Classification.STABLE if ups > 0.0 else Classification.UNSTABLE if ups < 0.0 else Classification.NEUTRAL
    return StabilityVerdict(verdict, solve_cubic(poly))


def mode_matrix(p: ModelParams, mu: float) -> np.ndarray:
    """Linearization about the coexistence equilibrium for a single spatial mode with squared wavenumber mu. Its
    reaction diagonal holds E1's exact zeros alpha v* - beta w* = zeta w* - eta f* = 0, as the mode cubic does."""
    if not 0.0 <= mu < math.inf:
        raise ValidationError(f"mu must be nonnegative and finite, got {mu}")
    A = jacobian(coexistence_state(p), p)
    A[0, 0], A[1, 1] = 0.0 - p.c * mu, 0.0
    A[2, 2] -= p.d * mu
    return A


def phi_cubic(p: ModelParams) -> PhiCubic:
    """Phi(mu) from `_coexistence_terms`; it evaluates at a float mu or elementwise at a 1-D array of them."""
    return _coexistence_terms(p)[6]


class DispersionSample(NamedTuple):
    mu: float
    a2: float
    a1: float
    a0: float
    phi: float
    eigenvalues: RootSet
    stable: bool


def dispersion_curve(p: ModelParams, mu_grid: Sequence[float]) -> list[DispersionSample]:
    """Sample the mode spectrum over a grid of squared wavenumbers; a Phi(mu) that is not finite raises
    NumericalFailure. The coefficients, Phi(mu) and the roots are computed for the whole grid in one array pass,
    each sample bit for bit as `solve_cubic` and the scalar formulas give it. A sample is stable where
    `_gap_verdict` gives STABLE: where phi exceeds its band."""
    terms = _coexistence_terms(p)
    phi = terms[6]
    mu = np.array(mu_grid)
    if mu.ndim != 1 or mu.dtype.kind not in "biuf":
        raise ValidationError(f"mu_grid must be a one-dimensional sequence of real numbers, got {mu.dtype} "
                              f"of shape {mu.shape}")
    mu = mu.astype(float, copy=False)
    if (mu < 0.0).any():  # as mode_matrix rejects it; -0.0 passes, and an inf mu is Phi's NumericalFailure below
        raise ValidationError(f"mu_grid must be nonnegative, got mu = {float(mu[np.argmax(mu < 0.0)])!r}")
    with np.errstate(all="ignore"):  # an inf mu gives inf * 0 = nan, which the check below reports
        a2, a1, a0 = _mode_cubic(p, terms, mu)
        gap = phi(mu)
        stable = gap > _band(a1 * a2, a0)  # a1 * a2 may overflow to inf: then the sample is marginal
    finite = np.isfinite((gap, a2, a1, a0)).all(axis=0)
    if not finite.all():  # raise what the first such sample raises on its own
        i = int(np.argmin(finite))
        _finite("Phi(mu)", phi)
        if not math.isfinite(gap[i]):  # the coefficients are finite, Phi at this mu is not
            raise NumericalFailure(f"Phi(mu) is not finite: its value {gap[i]} at mu = {float(mu[i])!r} "
                                   "leaves the float range")
        _finite("the mode cubic", (float(a2[i]), float(a1[i]), float(a0[i])))
    return list(map(tuple.__new__, repeat(DispersionSample), zip(
        mu.tolist(), a2.tolist(), a1.tolist(), a0.tolist(), gap.tolist(), _solve_cubics(a2, a1, a0), stable.tolist())))


class DiffusionThreshold(NamedTuple):
    mu_threshold: float
    k0: float


def _phi_positive_root(phi: PhiCubic) -> float:
    """Unique positive root of Phi when Phi(0) = b0 < 0; b1, b2, b3 >= 0 make Phi increasing and convex on mu > 0.
    Newton decreases monotonically from the least of m/b1, sqrt(m/b2) and cbrt(m/b3) over the b_j > 0, m = -b0,
    where Phi >= 0 and which is at most 3x the root; each bound is formed from m and b_j apart so that none
    underflows. The first step that does not decrease mu is returned: it is a Newton step from below the root."""
    if phi(2.0**99) <= 0.0:  # benchmark probe 1 pins this error until ROADMAP item 3 retires it
        raise RuntimeError("failed to bracket the root of Phi")
    b3, b2, b1, b0 = phi
    m = -b0
    mu = min(m / b1 if b1 > 0.0 else math.inf, math.sqrt(m) / math.sqrt(b2) if b2 > 0.0 else math.inf,
             m ** (1.0 / 3.0) / b3 ** (1.0 / 3.0) if b3 > 0.0 else math.inf)
    if not (math.isfinite(phi(mu)) and math.isfinite(phi.derivative(mu))):
        # Horner's partial sums grow with mu, and at the start they are at most 6 max|b_j|: coefficients scaled
        # by 1/8 keep them below the float max. The root stays, and so does every rounding of the loop unless a
        # coefficient falls below 2^-1019, where scaling rounds its last bits away.
        phi = PhiCubic(*(math.ldexp(b, -3) for b in phi))
    while True:
        step = mu - phi(mu) / phi.derivative(mu)
        if not step < mu:
            return step
        mu = step


def find_k0(p: ModelParams) -> DiffusionThreshold:
    """Smallest mu beyond which every higher-frequency mode is linearly stable,
    reported together with the wavenumber k0 = sqrt(mu)."""
    if p.c == 0.0 and p.d == 0.0:
        raise NumericalFailure("the diffusion threshold and wave trains require c > 0 or d > 0")
    phi = phi_cubic(p)
    if phi.b0 >= 0.0:
        return DiffusionThreshold(0.0, 0.0)
    _finite("Phi(mu)", phi)
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


def _null_vector(A: np.ndarray, lam: complex) -> np.ndarray:
    """Unit eigenvector of A for LAPACK's eigenvalue nearest `lam`: the right singular vector of
    A minus that eigenvalue for the smallest singular value, with its largest-magnitude component
    made real and positive. A matrix LAPACK cannot take (an inf or nan entry) raises NumericalFailure."""
    try:
        eigs = np.linalg.eigvals(A)
        x = np.linalg.svd(A - eigs[np.argmin(np.abs(eigs - lam))] * np.eye(len(A)))[2][-1].conj()
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigenvector for the eigenvalue nearest {lam} not found: {exc}") from None
    i = int(np.argmax(np.abs(x)))
    return x * (abs(x[i]) / x[i])


def find_wavetrain(p: ModelParams) -> WaveTrain:
    """Construct the wave train arising when the coexistence equilibrium is
    unstable (upsilon < 0) and diffusion is present. It is the threshold mode:
    mu* is `find_k0`'s mu_threshold, where Phi vanishes and A(mu*) factors as
    (lambda^2 + a1)(lambda + a2), so sigma* and the decay eigenvalue are
    `imaginary_root_factorization`'s sqrt(a1) and -a2."""
    terms = _coexistence_terms(p)
    if terms[6].b0 >= 0.0:
        raise NumericalFailure("no wave train: Upsilon >= 0")
    mu = find_k0(p).mu_threshold
    fact = imaginary_root_factorization(_finite("the mode cubic", _mode_cubic(p, terms, mu)))
    if fact is None:
        raise NumericalFailure(f"no wave train: A(mu*) has no imaginary eigenvalue pair at mu* = {mu}")
    x = _null_vector(mode_matrix(p, mu), 1j * fact.sigma)
    return WaveTrain(mu_star=mu, sigma_star=fact.sigma, eigvec=x, decay_eigenvalue=fact.real_root)


def slow_eigenvector(p: ModelParams, mu: float) -> np.ndarray:
    """Real unit eigenvector of A(mu) for its real eigenvalue closest to -a2(mu), a real root of
    `solve_cubic`: the null vector of A(mu) minus LAPACK's eigenvalue nearest that root, which
    stays accurate beside a near-double eigenvalue the cubic's coefficients do not separate. At
    the wave train's mu* the eigenvalue is -a2(mu*) itself, the decay eigenvalue."""
    A = mode_matrix(p, mu)
    poly = _finite("the mode cubic", dispersion_coefficients(p, mu))
    lam = min((r.real for r in solve_cubic(poly).roots if r.imag == 0.0), key=lambda r: abs(r + poly.a2))
    return _null_vector(A, lam).real


def mode_attraction(p: ModelParams, mu: float, theta0: np.ndarray, t: float) -> np.ndarray:
    """Evolve a single-mode amplitude theta(t) = e^{A(mu) t} theta(0) by the
    scaling-and-squaring exponential of A(mu) t."""
    if not math.isfinite(t):
        raise ValidationError(f"t must be finite, got {t}")
    theta0 = np.asarray(theta0)
    if not (theta0.shape == (3,) and theta0.dtype.kind in "biufc" and np.isfinite(theta0).all()):
        raise ValidationError(f"theta0 must be a finite real or complex vector of shape (3,), got {theta0!r}")
    return scipy.linalg.expm(mode_matrix(p, mu) * t) @ theta0


def _check_competition(p: ModelParams, mu: float, varsigma: float) -> None:
    if not (0.0 < varsigma < p.epsilon):
        raise ValidationError(f"varsigma must lie in (0, epsilon={p.epsilon}), got {varsigma}")
    if not 0.0 < mu < math.inf:
        raise ValidationError(f"mu must be positive and finite, got {mu}")


def competition_matrix(p: ModelParams, mu: float, varsigma: float) -> np.ndarray:
    """Mode matrix with nonlocal plant competition: the vegetation diagonal
    entry is shifted by the competition strength varsigma."""
    _check_competition(p, mu, varsigma)
    L = mode_matrix(p, mu)
    L[1, 1] += varsigma
    return L


@dataclass(frozen=True)
class CompetitionSpectrum:
    q_coeffs: MonicCubic
    eigenvalues: RootSet
    unstable: bool
    continuation_root: float  # real root of Q closest to varsigma


def competition_instability(p: ModelParams, mu: float, varsigma: float) -> CompetitionSpectrum:
    """Spectrum of the competition matrix L(mu, varsigma); for small rainfall
    gamma and small mu a real eigenvalue near varsigma > 0 drives instability. The spectrum is unstable by
    Routh-Hurwitz: where a2 or a0 of its cubic Q is negative, or `_gap_verdict` calls Q's gap UNSTABLE."""
    _check_competition(p, mu, varsigma)
    terms = _coexistence_terms(p)
    base, s = _mode_cubic(p, terms, mu), terms[3]
    q = MonicCubic(
        base.a2 - varsigma,
        base.a1 - varsigma * (s + (p.c + p.d) * mu),
        base.a0 - p.c * mu * varsigma * (s + p.d * mu),
    )
    eigs = solve_cubic(_finite("the competition cubic", q))
    real_roots = [r.real for r in eigs.roots if abs(r.imag) <= _band(abs(r))]
    continuation = min(real_roots, key=lambda r: abs(r - varsigma)) if real_roots else math.nan
    return CompetitionSpectrum(
        q_coeffs=q,
        eigenvalues=eigs,
        unstable=min(q.a2, q.a0) < 0.0 or _gap_verdict(q, _gap(q)) is Classification.UNSTABLE,
        continuation_root=continuation,
    )

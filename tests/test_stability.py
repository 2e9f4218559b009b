import dataclasses
import math
import pickle
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fvw import (
    Classification,
    DegenerateDiffusion,
    DispersionSample,
    ModelParams,
    MonicCubic,
    NoWaveTrain,
    NumericalFailure,
    PhiCubic,
    RootSet,
    ValidationError,
    VarsigmaOutOfRange,
    all_ones,
    classify_equilibrium,
    coexistence_state,
    competition_instability,
    competition_matrix,
    dispersion_coefficients,
    dispersion_curve,
    find_k0,
    find_wavetrain,
    imaginary_root_factorization,
    jacobian,
    mode_attraction,
    mode_matrix,
    phi_cubic,
    slow_eigenvector,
    solve_cubic,
    upsilon,
)
from fvw import model as fvw_model, stability as fvw_stability
from fvw.cubic import Verdict, _gap_verdict

from conftest import random_rates, vars_dict

NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta", "c", "d")
LOG_UNIFORM = st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)

# Frozen from high-precision evaluation of the closed form (also reproduced by
# the bisection oracle in test_find_k0_unstable_matches_eigenvalue_oracle).
UPSILON_UNSTABLE = -0.5588723439378913
MU_STAR = 0.13741280215402435
SIGMA_STAR = 1.6516166768020915


def char_poly_coeffs(A: np.ndarray):
    """Determinant-expansion oracle for the characteristic polynomial of a 3x3 matrix."""
    coeffs = np.poly(A)
    return coeffs[1], coeffs[2], coeffs[3]


def mp_phi(p: ModelParams, mu: float):
    """Oracle: a1 a2 - a0 of the characteristic polynomial of A(mu), built from the model at 80 digits."""
    with mpmath.workdps(80):
        al, be, ga, de, ep, et, ze, c, d = (mpmath.mpf(getattr(p, name)) for name in NAMES)
        w = 2 * al * ga / (mpmath.sqrt(al**2 * ep**2 + 4 * al * be * de * ga) + al * ep)
        f, v = ze * w / et, be * w / al
        A = mpmath.matrix([[al * v - be * w - c * mu, al * f, -be * f],
                           [-et * v, ze * w - et * f, ze * v],
                           [0, -de * w, -de * v - ep - d * mu]])
        a2 = -(A[0, 0] + A[1, 1] + A[2, 2])
        a1 = sum(A[i, i] * A[j, j] - A[i, j] * A[j, i] for i, j in ((0, 1), (0, 2), (1, 2)))
        return a1 * a2 + mpmath.det(A)


def mp_phi_root(phi: PhiCubic):
    """Oracle: the positive root of Phi's float coefficients at 80 digits, bracketed by doubling or halving from 1
    and bisected to 2^-200 relative, apart from find_k0's start; None where Phi(2^99) <= 0, a root past 2^99."""
    with mpmath.workdps(80):
        b3, b2, b1, b0 = map(mpmath.mpf, phi)

        def f(mu):
            return ((b3 * mu + b2) * mu + b1) * mu + b0

        if f(mpmath.mpf(2) ** 99) <= 0:
            return None
        lo = hi = mpmath.mpf(1)
        while f(hi) <= 0:
            lo, hi = hi, 2 * hi
        while f(lo) > 0:
            lo, hi = lo / 2, lo
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if f(mid) > 0 else (mid, hi)
        return (lo + hi) / 2


def draw_unstable_diffusive(rng) -> ModelParams:
    while True:
        p = random_rates(rng, low=0.1, high=10.0, c=float(rng.uniform(0.1, 2.0)),
                         d=float(rng.uniform(0.1, 2.0)))
        if upsilon(p) < -1e-3:
            return p


def scalar_dispersion(p: ModelParams, mu_grid) -> list[DispersionSample]:
    """Reference for dispersion_curve: each mu on its own, through solve_cubic and _gap_verdict."""
    phi = phi_cubic(p)
    out = []
    for mu in map(float, mu_grid):
        poly = dispersion_coefficients(p, mu)
        gap = phi(mu)
        if not math.isfinite(gap):
            raise NumericalFailure("Phi(mu) is not finite")
        stable = _gap_verdict(poly, gap) is Verdict.ALL_NEGATIVE_REAL_PART
        out.append(DispersionSample(mu, *poly, gap, solve_cubic(poly), stable))
    return out


class TestUpsilon:
    def test_all_ones(self, ones):
        # delta == alpha kills the first term, leaving epsilon.
        assert upsilon(ones) == pytest.approx(1.0, abs=1e-14)

    def test_unstable_params(self, unstable_params):
        assert upsilon(unstable_params) == pytest.approx(UPSILON_UNSTABLE, abs=1e-12)

    def test_small_alpha_blowup(self):
        assert upsilon(all_ones(alpha=1e-6)) > 1e2

    def test_underflowing_denominator(self):
        # alpha eps and 4 alpha beta delta gamma underflow, so the direct form of
        # D = sqrt(alpha^2 eps^2 + 4 alpha beta delta gamma) + alpha eps reads 0; its hypot form gives
        # mpmath's E1 = (1, 1, 1) and Upsilon = 1. An E1 past the float range (v* ~ 1e315) is a typed error.
        p = all_ones(alpha=1e-300, beta=1e-300, epsilon=1e-300)
        assert coexistence_state(p) == pytest.approx((1.0, 1.0, 1.0), rel=1e-15)
        assert upsilon(p) == pytest.approx(1.0, rel=1e-15)
        p = all_ones(beta=1e300, gamma=1e300, delta=1e-30)
        for fn in (upsilon, coexistence_state):
            with pytest.raises(NumericalFailure, match="the coexistence equilibrium leaves the float range"):
                fn(p)

    def test_partial_products_past_the_float_range(self):
        # 2 beta gamma = 2e308 overflows, but Upsilon = (delta - alpha) v* + eps = 7.07e153 and
        # E1 = (0.707, 7.07e156, 0.707) are in range, as mpmath gives them.
        p = all_ones(alpha=1e-3, beta=1e154, gamma=1e154, delta=2e-3)
        assert coexistence_state(p) == pytest.approx((0.5**0.5, 0.5**0.5 * 1e157, 0.5**0.5), rel=1e-15)
        assert upsilon(p) == pytest.approx(0.5**0.5 * 1e154, rel=1e-15)
        # E1 = (1e110, 1e290, 1e110) is in range, but Upsilon = -1e310 is not: only `upsilon` raises.
        p = all_ones(alpha=1e20, beta=1e200, gamma=1e200, delta=1e-200)
        assert coexistence_state(p) == pytest.approx((1e110, 1e290, 1e110), rel=1e-15)
        with pytest.raises(NumericalFailure, match="Upsilon leaves the float range"):
            upsilon(p)

    def test_routh_hurwitz_identity_random(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            p = random_rates(rng)
            f, v, w = coexistence_state(p)
            poly = dispersion_coefficients(p, 0.0)
            gap = poly.a1 * poly.a2 - poly.a0
            scaled = gap / (p.delta * p.zeta * v * w)
            assert scaled == pytest.approx(upsilon(p), rel=1e-9, abs=1e-9)


class TestClassifyEquilibrium:
    def test_trivial_always_unstable(self, ones):
        verdict = classify_equilibrium("E0", ones)
        assert verdict.classification is Classification.UNSTABLE
        assert [r for r in verdict.eigenvalues.roots] == [(-1 + 0j), (-1 + 0j), (1 + 0j)]

    def test_trivial_eigenvalues_past_a_partial_product(self):
        # beta gamma = 1e400 overflows, but the eigenvalue -beta gamma/epsilon = -1e250 is in range.
        verdict = classify_equilibrium("E0", all_ones(beta=1e200, gamma=1e200, epsilon=1e150))
        assert [r.real for r in verdict.eigenvalues.roots] == pytest.approx([-1e250, -1e150, 1e50], rel=1e-15)

    def test_coexistence_stable_all_ones(self, ones):
        verdict = classify_equilibrium("E1", ones)
        assert verdict.classification is Classification.STABLE
        assert verdict.upsilon == pytest.approx(1.0)
        assert verdict.eigenvalues.max_real_part() < 0

    def test_coexistence_unstable(self, unstable_params):
        verdict = classify_equilibrium("E1", unstable_params)
        assert verdict.classification is Classification.UNSTABLE
        roots = verdict.eigenvalues.roots
        positive_pair = [r for r in roots if r.real > 0]
        assert len(positive_pair) == 2
        assert positive_pair[0] == positive_pair[1].conjugate()
        real_negative = [r for r in roots if r.imag == 0.0]
        assert len(real_negative) == 1 and real_negative[0].real < 0

    def test_unknown_label_rejected(self, ones):
        with pytest.raises(ValueError):
            classify_equilibrium("E2", ones)


class TestModeMatrix:
    def test_reduces_to_jacobian_at_zero(self, unstable_diffusive_params):
        p = unstable_diffusive_params
        assert np.allclose(mode_matrix(p, 0.0), jacobian(coexistence_state(p), p), atol=1e-14)

    def test_all_ones_entries(self):
        p = all_ones(c=1.0, d=1.0)
        w = coexistence_state(p).w
        A = mode_matrix(p, 1.0)
        assert A[0, 0] == pytest.approx(-1.0)
        assert A[2, 2] == pytest.approx(-(w + 1.0 + 1.0))

    def test_coefficients_match_determinant_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            p = random_rates(rng, low=0.1, high=10.0, c=float(rng.uniform(0, 2)),
                             d=float(rng.uniform(0, 2)))
            mu = float(rng.uniform(0, 5))
            poly = dispersion_coefficients(p, mu)
            a2, a1, a0 = char_poly_coeffs(mode_matrix(p, mu))
            scale = 1.0 + max(abs(a2), abs(a1), abs(a0))
            assert abs(poly.a2 - a2) <= 1e-10 * scale
            assert abs(poly.a1 - a1) <= 1e-10 * scale
            assert abs(poly.a0 - a0) <= 1e-10 * scale

    def test_negative_mu_rejected(self, ones):
        with pytest.raises(ValueError):
            mode_matrix(ones, -0.1)


class TestDispersion:
    def test_phi_at_zero_is_scaled_upsilon(self, unstable_diffusive_params):
        p = unstable_diffusive_params
        f, v, w = coexistence_state(p)
        (sample,) = dispersion_curve(p, [0.0])
        assert sample.phi == pytest.approx(p.delta * p.zeta * v * w * upsilon(p), rel=1e-12)

    def test_unstable_params_sign_pattern(self, unstable_diffusive_params):
        samples = dispersion_curve(unstable_diffusive_params, [0.0, 2.0])
        assert samples[0].phi == pytest.approx(-0.48522723769540704, rel=1e-10)
        assert samples[0].stable is False
        assert samples[1].phi > 0
        assert samples[1].stable is True

    def test_phi_cubic_coefficients_unstable_params(self, unstable_diffusive_params):
        phi = phi_cubic(unstable_diffusive_params)
        assert phi.b3 == pytest.approx(2.0, rel=1e-12)
        assert phi.b2 == pytest.approx(2.276617031813674, rel=1e-10)
        assert phi.b1 == pytest.approx(3.1805638280310546, rel=1e-10)
        assert phi.b0 == pytest.approx(-0.48522723769540704, rel=1e-10)

    def test_phi_matches_coefficient_gap(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_rates(rng, low=0.1, high=10.0, c=float(rng.uniform(0, 2)),
                             d=float(rng.uniform(0, 2)))
            phi = phi_cubic(p)
            for mu in (0.0, 0.3, 1.7, 12.0):
                poly = dispersion_coefficients(p, mu)
                gap = poly.a1 * poly.a2 - poly.a0
                assert phi(mu) == pytest.approx(gap, rel=1e-9, abs=1e-9 * (1 + abs(gap)))

    @given(draws=st.lists(LOG_UNIFORM, min_size=10, max_size=10))
    def test_phi_matches_mpmath(self, draws):
        # a1 a2 - a0 cancels; Phi(mu) from phi_cubic stays within 1e-14 of the size of its own terms.
        # b0 = delta zeta v* w* Upsilon, and Upsilon = T + epsilon cancels near its root, so b0's
        # size is delta zeta v* w* (|T| + epsilon).
        p = ModelParams(**dict(zip(NAMES, draws)))
        b3, b2, b1, _ = phi_cubic(p)
        _, v, w = coexistence_state(p)
        b0_size = p.delta * p.zeta * v * w * (abs(upsilon(p) - p.epsilon) + p.epsilon)
        for s in dispersion_curve(p, [0.0, draws[-1]]):
            scale = ((abs(b3) * s.mu + abs(b2)) * s.mu + abs(b1)) * s.mu + b0_size
            assert abs(s.phi - mp_phi(p, s.mu)) <= 1e-14 * scale

    def test_stable_for_all_mu_when_upsilon_positive(self):
        p = all_ones(c=1.0, d=1.0)
        samples = dispersion_curve(p, np.linspace(0.0, 10.0, 50))
        assert all(s.stable for s in samples)

    def test_stability_consistent_with_eigenvalues(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            p = draw_unstable_diffusive(rng)
            for s in dispersion_curve(p, np.linspace(0.0, 4.0, 11)):
                if abs(s.phi) < 1e-9 * (1.0 + abs(s.a1 * s.a2) + abs(s.a0)):
                    continue
                max_re = np.max(np.linalg.eigvals(mode_matrix(p, s.mu)).real)
                assert (max_re < 0) == (s.phi > 0)

    def test_zero_diffusion_reproduces_ode_spectrum(self, unstable_params):
        samples = dispersion_curve(unstable_params, [0.0, 1.0, 3.0])
        verdict = classify_equilibrium("E1", unstable_params)
        for s in samples:
            assert s.eigenvalues.roots == verdict.eigenvalues.roots


class TestDispersionArrayPass:
    """dispersion_curve solves all its cubics in one array pass; every sample, signed zeros
    included, must be the one the per-mu path gives (compared by repr)."""

    @staticmethod
    def assert_built_as_their_classes(samples):
        # Samples and root sets are made by tuple.__new__, not through the NamedTuple constructors.
        for s in samples:
            assert type(s) is DispersionSample and type(s.eigenvalues) is RootSet
            assert s == DispersionSample(*s) and s.eigenvalues == RootSet(*s.eigenvalues)
            copy = pickle.loads(pickle.dumps(s))
            assert type(copy) is DispersionSample and type(copy.eigenvalues) is RootSet and repr(copy) == repr(s)

    @given(draws=st.lists(LOG_UNIFORM, min_size=9, max_size=9),
           decades=st.tuples(st.floats(-12.0, 0.0), st.floats(0.0, 12.0)),
           samples=st.integers(2, 60))
    def test_matches_the_per_mu_path(self, draws, decades, samples):
        p = ModelParams(**dict(zip(NAMES, draws)))
        grid = [0.0, *np.geomspace(10.0 ** decades[0], 10.0 ** decades[1], samples)]
        try:
            want = scalar_dispersion(p, grid)
        except NumericalFailure:
            with pytest.raises(NumericalFailure, match="Phi.mu. is not finite"):
                dispersion_curve(p, grid)
            return
        got = dispersion_curve(p, grid)
        assert repr(got) == repr(want)
        self.assert_built_as_their_classes(got)

    def test_three_real_roots(self):
        # With d = 100 c the large-mu modes separate into three real eigenvalues.
        p = all_ones(c=1.0, d=100.0)
        grid = np.geomspace(1e-3, 1e3, 50)
        got = dispersion_curve(p, grid)
        assert any(all(r.imag == 0.0 for r in s.eigenvalues.roots) for s in got)
        assert repr(got) == repr(scalar_dispersion(p, grid))
        self.assert_built_as_their_classes(got)

    def test_coefficients_beyond_the_unscaled_range(self):
        # beta = 1e200 gives a2 = 1e100 at mu = 0: solve_cubic scales that cubic (|e| > 160), and the
        # pair +-i sqrt(2) keeps its real part -0.0.
        p = all_ones(beta=1e200, c=1.0, d=1.0)
        grid = np.linspace(0.0, 2.0, 5)
        got = dispersion_curve(p, grid)
        assert math.copysign(1.0, got[0].eigenvalues.roots[1].real) == -1.0
        assert repr(got) == repr(scalar_dispersion(p, grid))
        self.assert_built_as_their_classes(got)

    def test_empty_grid(self, unstable_diffusive_params):
        assert dispersion_curve(unstable_diffusive_params, []) == []

    @pytest.mark.parametrize("grid", [0.5, [[0.0, 1.0]], iter([0.0, 1.0]), [None], [0.0, None], ["1.0"], [1.0j]],
                             ids=["scalar", "2-d", "one-shot-iterator", "none", "none-after-a-number", "string",
                                  "complex"])
    def test_grid_must_be_a_sequence_of_real_numbers(self, unstable_diffusive_params, grid):
        # Invalid input, not a numerical failure: a None must not pass as nan and be reported as Phi(mu).
        with pytest.raises(ValidationError, match="one-dimensional sequence of real numbers"):
            dispersion_curve(unstable_diffusive_params, grid)

    def test_verdict_where_the_band_overflows(self, recwarn):
        # E1 = (1, 7.5e153, 1) as mpmath gives it; a2 = 1.125e154 and a1 = 1.875e154 are finite, but a1 * a2
        # and so the band overflow to inf; Phi(0) = 4.2e307 is finite and positive, yet _gap_verdict calls the
        # row MARGINAL, so it is not stable.
        p = ModelParams(alpha=1.0, beta=7.5e153, gamma=1.125e154, delta=1.5, epsilon=1.0, eta=1.0, zeta=1.0)
        assert coexistence_state(p) == pytest.approx((1.0, 7.5e153, 1.0), rel=1e-15)
        got = dispersion_curve(p, [0.0, 1.0])
        assert not recwarn.list
        for s in got:
            assert math.isinf(s.a1 * s.a2) and math.isfinite(s.phi) and s.phi > 0.0
            assert _gap_verdict(MonicCubic(s.a2, s.a1, s.a0), s.phi) is Verdict.MARGINAL
            assert s.stable is False
        assert repr(got) == repr(scalar_dispersion(p, [0.0, 1.0]))

    def test_sample_is_a_named_tuple_with_the_dataclass_repr(self, unstable_diffusive_params):
        # DispersionSample was a frozen dataclass; as a NamedTuple it keeps its fields, their order and its repr.
        former = dataclasses.make_dataclass(
            "DispersionSample", list(DispersionSample.__annotations__.items()), frozen=True)
        names = ("mu", "a2", "a1", "a0", "phi", "eigenvalues", "stable")
        assert issubclass(DispersionSample, tuple) and DispersionSample._fields == names
        (sample,) = dispersion_curve(unstable_diffusive_params, [0.5])
        assert repr(sample) == repr(former(*sample))
        assert repr(sample).startswith("DispersionSample(mu=0.5, a2=")

    @pytest.mark.parametrize("c, d", [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0)])
    def test_infinite_mu_raises_without_warnings(self, c, d, recwarn):
        # Phi(inf) is inf, or nan from inf * 0 when c = 0; either is reported, and no warning is emitted.
        with pytest.raises(NumericalFailure, match="Phi.mu. is not finite"):
            dispersion_curve(all_ones(c=c, d=d), [0.0, 1.0, math.inf])
        assert not recwarn.list


class TestFindK0:
    def test_zero_threshold_when_stable(self):
        thr = find_k0(all_ones(c=1.0, d=1.0))
        assert thr.mu_threshold == 0.0
        assert thr.k0 == 0.0

    def test_unstable_threshold_value(self, unstable_diffusive_params):
        thr = find_k0(unstable_diffusive_params)
        assert thr.mu_threshold == pytest.approx(MU_STAR, abs=1e-10)
        assert thr.k0 == pytest.approx(math.sqrt(MU_STAR), abs=1e-10)

    def test_find_k0_unstable_matches_eigenvalue_oracle(self, unstable_diffusive_params):
        # Independent oracle: bisection on max Re eig(A(mu)) from numpy.
        p = unstable_diffusive_params

        def max_re(mu):
            return np.max(np.linalg.eigvals(mode_matrix(p, mu)).real)

        lo, hi = 0.0, 1.0
        assert max_re(lo) > 0 > max_re(hi)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if max_re(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert find_k0(p).mu_threshold == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_root_residual(self, unstable_diffusive_params):
        phi = phi_cubic(unstable_diffusive_params)
        mu = find_k0(unstable_diffusive_params).mu_threshold
        assert abs(phi(mu)) <= 1e-10

    def test_phi_monotone_single_sign_change(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            p = draw_unstable_diffusive(rng)
            phi = phi_cubic(p)
            grid = np.linspace(0.0, 50.0, 400)
            assert all(phi.derivative(mu) > 0 for mu in grid[1:])
            signs = [phi(mu) > 0 for mu in grid]
            assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) <= 1

    def test_large_root_terminates(self):
        # A root above 1e5, where consecutive floats lie more than 1e-11 apart: the root search must still stop.
        p = ModelParams(alpha=686.9, beta=174.3, gamma=6339.0, delta=0.002217, epsilon=0.000564,
                        eta=903.0, zeta=322837.0, d=3.39)
        mu = find_k0(p).mu_threshold
        phi = phi_cubic(p)
        assert mu > 1e5 and phi(mu * (1 - 1e-9)) < 0 < phi(mu * (1 + 1e-9))

    @given(rates=st.lists(st.floats(math.log(1e-30), math.log(1e30)).map(math.exp), min_size=9, max_size=9),
           zero=st.sampled_from([None, "c", "d"]))
    def test_threshold_matches_mpmath(self, rates, zero):
        # The rates log-uniform in [1e-30, 1e30], with c = 0 or d = 0 as well: mu_threshold is the root of Phi's
        # float coefficients within 1e-15 relative, wherever b0 < 0 is a normal float and the root a normal float
        # no larger than 2^99.
        rates[0], rates[3] = max(rates[0], rates[3]), min(rates[0], rates[3])  # Upsilon < 0 needs alpha > delta
        p = ModelParams(**{**dict(zip(NAMES, rates)), **({zero: 0.0} if zero else {})})
        phi = phi_cubic(p)
        assume(all(map(math.isfinite, phi)) and phi.b0 <= -sys.float_info.min)
        root = mp_phi_root(phi)
        assume(root is not None and root >= sys.float_info.min)
        assert abs(find_k0(p).mu_threshold - root) <= 1e-15 * root

    def test_root_near_1e_minus_300(self):
        # zeta = 1e-300 makes b0 = -4.85e-301, and Phi's b2 and b3 terms lie below the last bit of b1 mu at the
        # root, which is -b0/b1 = 8.43e-301: far under any absolute tolerance a root search might stop at.
        p = all_ones(alpha=2.0, epsilon=0.1, c=1.0, d=1.0, zeta=1e-300)
        phi = phi_cubic(p)
        assert find_k0(p).mu_threshold == pytest.approx(-phi.b0 / phi.b1, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("phi", [
        PhiCubic(7.690046420821048e+307, 1.1654262745925037e+126, 1.7412258995775157e+148, -3.1611170816525e+80),
        phi_cubic(all_ones(alpha=2.0, epsilon=0.1, c=1.1e154, d=1.0)),  # b2 = 9.18e307
    ], ids=["b3", "b2"])
    def test_root_with_coefficients_near_the_float_max(self, phi):
        # 3 b3 overflows for b3 > 6e307 and 2 b2 for b2 > 9e307; Phi' must not, or Newton stalls at its start.
        root = mp_phi_root(phi)
        assert abs(fvw_stability._phi_positive_root(phi) - root) <= 1e-15 * root

    def test_degenerate_diffusion(self, unstable_params):
        with pytest.raises(DegenerateDiffusion):
            find_k0(unstable_params)

    def test_single_diffusion_coefficient(self, unstable_params):
        # c = 0 makes Phi linear in mu; the threshold must still be the root.
        p = ModelParams(**{**vars_dict(unstable_params), "d": 1.0})
        thr = find_k0(p)
        assert thr.mu_threshold > 0
        assert abs(phi_cubic(p)(thr.mu_threshold)) <= 1e-10


class TestWaveTrain:
    def test_unstable_params_values(self, unstable_diffusive_params):
        wt = find_wavetrain(unstable_diffusive_params)
        assert wt.mu_star == pytest.approx(MU_STAR, abs=1e-10)
        assert wt.sigma_star == pytest.approx(SIGMA_STAR, abs=1e-10)
        poly = dispersion_coefficients(unstable_diffusive_params, wt.mu_star)
        assert wt.sigma_star == pytest.approx(math.sqrt(poly.a1), rel=1e-14)
        assert wt.decay_eigenvalue == pytest.approx(-poly.a2, rel=1e-14)

    def test_eigenvector_residual(self, unstable_diffusive_params):
        wt = find_wavetrain(unstable_diffusive_params)
        A = mode_matrix(unstable_diffusive_params, wt.mu_star)
        assert np.linalg.norm(A @ wt.eigvec - 1j * wt.sigma_star * wt.eigvec) <= 1e-8
        assert np.linalg.norm(wt.eigvec) == pytest.approx(1.0, abs=1e-12)

    def test_spectral_structure(self, unstable_diffusive_params):
        wt = find_wavetrain(unstable_diffusive_params)
        eigs = sorted(
            np.linalg.eigvals(mode_matrix(unstable_diffusive_params, wt.mu_star)),
            key=lambda z: (z.real, z.imag),
        )
        expected = sorted(
            [wt.decay_eigenvalue + 0j, 1j * wt.sigma_star, -1j * wt.sigma_star],
            key=lambda z: (z.real, z.imag),
        )
        for got, want in zip(eigs, expected):
            assert abs(got - want) <= 1e-8

    @given(draws=st.lists(st.floats(math.log(1e-3), math.log(1e3)).map(math.exp), min_size=9, max_size=9))
    def test_eigenvector_matches_mpmath(self, draws):
        rates = dict(zip(NAMES, draws))
        # Upsilon < 0 needs alpha > delta: ordering the pair keeps hypothesis from filtering most draws.
        rates["alpha"], rates["delta"] = max(draws[0], draws[3]), min(draws[0], draws[3])
        p = ModelParams(**rates)
        assume(upsilon(p) < 0)
        wt = find_wavetrain(p)
        with mpmath.workdps(50):
            values, vectors = mpmath.eig(mpmath.matrix(mode_matrix(p, wt.mu_star).tolist()))
            j = min(range(3), key=lambda k: abs(values[k] - 1j * wt.sigma_star))
            x = [vectors[i, j] for i in range(3)]
            big = max(x, key=abs)  # normalized as X*: unit norm, largest component real and positive
            scale = abs(big) / big / mpmath.sqrt(sum(abs(z) ** 2 for z in x))
            want = np.array([complex(z * scale) for z in x])
        assert np.linalg.norm(wt.eigvec - want) <= 1e-12

    def test_span_basis_independent(self, unstable_diffusive_params):
        wt = find_wavetrain(unstable_diffusive_params)
        M = np.vstack(wt.span_basis)
        assert np.linalg.matrix_rank(M, tol=1e-10) == 2

    def test_no_wavetrain_when_stable(self):
        with pytest.raises(NoWaveTrain):
            find_wavetrain(all_ones(c=1.0, d=1.0))

    def test_degenerate_diffusion(self, unstable_params):
        with pytest.raises(DegenerateDiffusion):
            find_wavetrain(unstable_params)

    def test_residuals_random_unstable_draws(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            p = draw_unstable_diffusive(rng)
            wt = find_wavetrain(p)
            A = mode_matrix(p, wt.mu_star)
            resid = np.linalg.norm(A @ wt.eigvec - 1j * wt.sigma_star * wt.eigvec)
            assert resid <= 1e-8

    @given(draws=st.lists(st.floats(math.log(1e-6), math.log(1e6)).map(math.exp), min_size=9, max_size=9))
    def test_threshold_mode_is_the_wave_train(self, draws):
        names = ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta", "c", "d")
        p = ModelParams(**dict(zip(names, draws)))
        assume(upsilon(p) < 0)
        wt = find_wavetrain(p)
        assert wt.mu_star == find_k0(p).mu_threshold
        fact = imaginary_root_factorization(dispersion_coefficients(p, wt.mu_star))
        assert (wt.sigma_star, wt.decay_eigenvalue) == (fact.sigma, fact.real_root)


class TestModeAttraction:
    def test_matches_mpmath_expm(self):
        rng = np.random.default_rng(67)
        with mpmath.workdps(40):
            for _ in range(5):
                p = draw_unstable_diffusive(rng)
                wt = find_wavetrain(p)
                A = mpmath.matrix(mode_matrix(p, wt.mu_star).tolist())
                theta0 = rng.normal(size=3)
                for t in (0.1, 1.0, 10.0, 100.0):
                    t = t / wt.sigma_star
                    want = np.array((mpmath.expm(A * t) * mpmath.matrix(theta0.tolist())).tolist(), dtype=float)[:, 0]
                    got = mode_attraction(p, wt.mu_star, theta0, t)
                    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    def test_eigenvector_rotates_with_constant_norm(self, unstable_diffusive_params):
        p = unstable_diffusive_params
        wt = find_wavetrain(p)
        for t in (0.5, 5.0, 25.0, 100.0):
            theta = mode_attraction(p, wt.mu_star, wt.eigvec, t)
            expected = np.exp(1j * wt.sigma_star * t) * wt.eigvec
            assert np.linalg.norm(theta - expected) <= 1e-8 * np.exp(1e-10 * t)
            assert np.linalg.norm(theta) == pytest.approx(1.0, abs=1e-8)

    def test_slow_eigenvector_decays(self, unstable_diffusive_params):
        p = unstable_diffusive_params
        wt = find_wavetrain(p)
        omega = slow_eigenvector(p, wt.mu_star)
        norms = [
            np.linalg.norm(mode_attraction(p, wt.mu_star, omega, t)) for t in (0.0, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        for t, n in zip((0.0, 1.0, 2.0, 4.0), norms):
            assert n == pytest.approx(math.exp(wt.decay_eigenvalue * t), rel=1e-7)

    @given(draws=st.lists(LOG_UNIFORM, min_size=10, max_size=10))
    def test_slow_eigenvector_residual(self, draws):
        # Away from mu*, -a2(mu) is no eigenvalue; the shift is the real root of the mode cubic nearest it.
        p, mu = ModelParams(**dict(zip(NAMES, draws))), draws[-1]
        A = mode_matrix(p, mu)
        x = slow_eigenvector(p, mu)
        lam = x @ A @ x  # the Rayleigh quotient: the eigenvalue estimate with the least residual
        assert np.linalg.norm(A @ x - lam * x) <= 1e-12 * np.linalg.norm(A)

    @pytest.mark.parametrize(
        "rates",
        [dict(alpha=math.exp(2), beta=math.exp(-4), delta=math.exp(-3), epsilon=math.exp(-6),
              c=math.exp(13.125), d=math.exp(13.125)),
         dict(alpha=math.exp(-2), beta=1.0, delta=math.exp(3), epsilon=math.exp(12), c=math.exp(12),
              d=math.exp(-6))],
        ids=["c-equals-d", "d-small"],
    )
    def test_slow_eigenvector_beside_a_near_double_eigenvalue(self, rates):
        # A(1) has two eigenvalues ~2e-8 apart in relative terms, which solve_cubic returns as one
        # double root between them; the vector must still hold to A's own eigenvalue.
        p = all_ones(**rates)
        A = mode_matrix(p, 1.0)
        x = slow_eigenvector(p, 1.0)
        lam = x @ A @ x
        assert np.linalg.norm(A @ x - lam * x) <= 1e-12 * np.linalg.norm(A)

    def test_convergence_to_wave_span(self, unstable_diffusive_params):
        p = unstable_diffusive_params
        wt = find_wavetrain(p)
        omega = slow_eigenvector(p, wt.mu_star)
        rng = np.random.default_rng(59)
        theta0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        basis = np.column_stack([wt.eigvec, wt.eigvec.conj(), omega])
        theta3 = np.linalg.solve(basis, theta0)[2]

        span = np.column_stack([wt.eigvec, wt.eigvec.conj()])
        proj = span @ np.linalg.lstsq(span, np.eye(3, dtype=complex), rcond=None)[0]
        for t in (1.0, 5.0, 10.0):
            theta = mode_attraction(p, wt.mu_star, theta0, t)
            dist = np.linalg.norm(theta - proj @ theta)
            assert dist <= abs(theta3) * math.exp(wt.decay_eigenvalue * t) * (1 + 1e-6)


class TestCompetition:
    def test_single_entry_shift(self, ones):
        rng = np.random.default_rng(61)
        for _ in range(20):
            p = random_rates(rng, low=0.2, high=5.0, c=1.0, d=1.0)
            varsigma = 0.5 * p.epsilon
            mu = float(rng.uniform(0.01, 2.0))
            delta_m = competition_matrix(p, mu, varsigma) - mode_matrix(p, mu)
            expected = np.zeros((3, 3))
            expected[1, 1] = varsigma
            assert np.allclose(delta_m, expected, atol=1e-14)

    def test_trace_shift(self):
        p = all_ones(gamma=0.3, c=1.0, d=1.0)
        mu = 0.3  # mu = gamma pairing from the small-rainfall figure setup
        L = competition_matrix(p, mu, 0.5)
        A = mode_matrix(p, mu)
        assert np.trace(L) == pytest.approx(np.trace(A) + 0.5)

    def test_characteristic_polynomial_matches_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            p = random_rates(rng, low=0.2, high=5.0, c=float(rng.uniform(0, 2)),
                             d=float(rng.uniform(0, 2)))
            mu = float(rng.uniform(0.01, 3.0))
            varsigma = float(rng.uniform(0.1, 0.9)) * p.epsilon
            spec = competition_instability(p, mu, varsigma)
            a2, a1, a0 = np.poly(competition_matrix(p, mu, varsigma))[1:]
            scale = 1.0 + max(abs(a2), abs(a1), abs(a0))
            assert abs(spec.q_coeffs.a2 - a2) <= 1e-10 * scale
            assert abs(spec.q_coeffs.a1 - a1) <= 1e-10 * scale
            assert abs(spec.q_coeffs.a0 - a0) <= 1e-10 * scale

    def test_small_nu_limit(self):
        p = all_ones(gamma=1e-8, c=1.0, d=1.0)
        spec = competition_instability(p, 1e-8, 0.5)
        got = sorted(spec.eigenvalues.roots, key=lambda z: z.real)
        for root, expected in zip(got, (-1.0, 0.0, 0.5)):
            assert abs(root - expected) <= 1e-3

    def test_small_rainfall_instability(self):
        p = all_ones(gamma=0.01, c=1.0, d=1.0)
        spec = competition_instability(p, 0.01, 0.5)
        assert spec.unstable is True
        assert 0.3 < spec.eigenvalues.max_real_part() < 0.7
        assert spec.continuation_root == pytest.approx(spec.eigenvalues.max_real_part())

    def test_eigenvalue_convergence_rate(self):
        errors = []
        for h in (1e-2, 1e-3, 1e-4):
            p = all_ones(gamma=h, c=1.0, d=1.0)
            spec = competition_instability(p, h, 0.5)
            got = sorted(spec.eigenvalues.roots, key=lambda z: z.real)
            errors.append(max(abs(g - e) for g, e in zip(got, (-1.0, 0.0, 0.5))))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine < coarse
            assert 0.05 <= coarse / fine <= 20.0

    # Both competition entry points share one validation; each test checks both callers.
    @pytest.mark.parametrize("varsigma", [0.0, 1.0, 1.5, -0.2])
    def test_varsigma_out_of_range(self, varsigma, ones):
        for fn in (competition_instability, competition_matrix):
            with pytest.raises(VarsigmaOutOfRange):
                fn(all_ones(c=1.0, d=1.0), 0.1, varsigma)

    def test_nonpositive_mu_rejected(self):
        for fn in (competition_instability, competition_matrix):
            with pytest.raises(ValueError, match="mu must be positive"):
                fn(all_ones(c=1.0, d=1.0), 0.0, 0.5)


class TestCoexistenceRecord:
    @pytest.mark.parametrize("call, derivations", [
        (lambda p: classify_equilibrium("E1", p), 2),  # the record, and upsilon for the verdict's Upsilon
        (lambda p: dispersion_curve(p, np.linspace(0.0, 2.0, 21)), 1),
        (find_wavetrain, 3),  # the record, find_k0, and mode_matrix's own E1 for the eigenvector
    ], ids=["classify-E1", "dispersion_curve", "find_wavetrain"])
    def test_coexistence_derived_once_per_call(self, monkeypatch, unstable_diffusive_params, call, derivations):
        calls = []
        derive = fvw_model._coexistence

        def counted(p):
            calls.append(p)
            return derive(p)

        monkeypatch.setattr(fvw_model, "_coexistence", counted)
        monkeypatch.setattr(fvw_stability, "_coexistence", counted)
        call(unstable_diffusive_params)
        assert len(calls) == derivations

import math

import numpy as np
import pytest

from fvw import (
    Classification,
    DegenerateDiffusion,
    ModelParams,
    NoWaveTrain,
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
    jacobian,
    mode_attraction,
    mode_matrix,
    phi_cubic,
    slow_eigenvector,
    upsilon,
)

from conftest import random_rates, vars_dict

# Frozen from high-precision evaluation of the closed form (also reproduced by
# the bisection oracle in test_find_k0_unstable_matches_eigenvalue_oracle).
UPSILON_UNSTABLE = -0.5588723439378913
MU_STAR = 0.13741280215402435
SIGMA_STAR = 1.6516166768020915


def char_poly_coeffs(A: np.ndarray):
    """Determinant-expansion oracle for the characteristic polynomial of a 3x3 matrix."""
    coeffs = np.poly(A)
    return coeffs[1], coeffs[2], coeffs[3]


def draw_unstable_diffusive(rng) -> ModelParams:
    while True:
        p = random_rates(rng, low=0.1, high=10.0, c=float(rng.uniform(0.1, 2.0)),
                         d=float(rng.uniform(0.1, 2.0)))
        if upsilon(p) < -1e-3:
            return p


class TestUpsilon:
    def test_all_ones(self, ones):
        # delta == alpha kills the first term, leaving epsilon.
        assert upsilon(ones) == pytest.approx(1.0, abs=1e-14)

    def test_unstable_params(self, unstable_params):
        assert upsilon(unstable_params) == pytest.approx(UPSILON_UNSTABLE, abs=1e-12)

    def test_small_alpha_blowup(self):
        assert upsilon(all_ones(alpha=1e-6)) > 1e2

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
        # Above ~1e4 floats are coarser than the bisection's 1e-12 width; the search once looped for ever here.
        p = ModelParams(alpha=686.9, beta=174.3, gamma=6339.0, delta=0.002217, epsilon=0.000564,
                        eta=903.0, zeta=322837.0, d=3.39)
        mu = find_k0(p).mu_threshold
        phi = phi_cubic(p)
        assert mu > 1e5 and phi(mu * (1 - 1e-9)) < 0 < phi(mu * (1 + 1e-9))

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


class TestModeAttraction:
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

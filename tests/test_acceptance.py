"""Acceptance suite: each test exercises one top-level criterion at its stated
tolerance and prints a single PASS line when it holds."""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from fvw import (
    Classification,
    IntegratorConfig,
    ModelParams,
    MonicCubic,
    State,
    all_ones,
    classify_equilibrium,
    coexistence_state,
    competition_instability,
    dispersion_coefficients,
    find_k0,
    find_wavetrain,
    hurwitz_negative,
    integrate_ode,
    jacobian,
    kernel_moments,
    mode_attraction,
    mode_matrix,
    simulate_pde,
    single_mode_field,
    slow_eigenvector,
    upsilon,
)
from fvw.cli import main as cli_main

from conftest import random_rates

UNSTABLE = ModelParams(alpha=2.0, beta=1.0, gamma=1.0, delta=1.0,
                       epsilon=0.1, eta=1.0, zeta=1.0)
UNSTABLE_DIFFUSIVE = ModelParams(alpha=2.0, beta=1.0, gamma=1.0, delta=1.0,
                                 epsilon=0.1, eta=1.0, zeta=1.0, c=1.0, d=1.0)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_upsilon_routh_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(1000):
        p = random_rates(rng)
        poly = dispersion_coefficients(p, 0.0)
        gap = poly.a1 * poly.a2 - poly.a0
        if abs(gap) <= 1e-9 * (1.0 + abs(poly.a1 * poly.a2) + abs(poly.a0)):
            continue
        verdict = classify_equilibrium("E1", p)
        # Independent oracle: dense eigensolver on the reaction Jacobian.
        max_re = np.max(np.linalg.eigvals(jacobian(coexistence_state(p), p)).real)
        expected = Classification.STABLE if max_re < 0 else Classification.UNSTABLE
        assert verdict.classification is expected
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert checked >= 990
    report(1, f"{checked} draws agree with the eigenvalue oracle in {elapsed:.2f}s")


def test_criterion_2_high_frequency_stabilization():
    ups = upsilon(UNSTABLE_DIFFUSIVE)
    assert ups == pytest.approx(-0.55887, abs=1e-4)
    mu_threshold = find_k0(UNSTABLE_DIFFUSIVE).mu_threshold
    assert mu_threshold == pytest.approx(0.1374, abs=1e-3)
    for mu in (0.2, 0.5, 1.0, 2.0):
        assert np.max(np.linalg.eigvals(mode_matrix(UNSTABLE_DIFFUSIVE, mu)).real) < 0
    for mu in (0.01, 0.05, 0.1):
        assert np.max(np.linalg.eigvals(mode_matrix(UNSTABLE_DIFFUSIVE, mu)).real) > 0
    report(2, f"Upsilon={ups:.5f}, mu_threshold={mu_threshold:.4f}, spectrum signs as predicted")


def test_criterion_3_wave_train():
    wt = find_wavetrain(UNSTABLE_DIFFUSIVE)
    poly = dispersion_coefficients(UNSTABLE_DIFFUSIVE, wt.mu_star)
    assert wt.sigma_star == pytest.approx(math.sqrt(poly.a1), rel=1e-12)

    eigs = sorted(np.linalg.eigvals(mode_matrix(UNSTABLE_DIFFUSIVE, wt.mu_star)),
                  key=lambda z: (z.real, z.imag))
    expected = sorted([-poly.a2 + 0j, 1j * wt.sigma_star, -1j * wt.sigma_star],
                      key=lambda z: (z.real, z.imag))
    for got, want in zip(eigs, expected):
        assert abs(got - want) <= 1e-8

    rng = np.random.default_rng(103)
    theta0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    span = np.column_stack([wt.eigvec, wt.eigvec.conj()])
    proj = span @ np.linalg.lstsq(span, np.eye(3, dtype=complex), rcond=None)[0]
    t = 5.0
    theta = mode_attraction(UNSTABLE_DIFFUSIVE, wt.mu_star, theta0, t)
    residual = np.linalg.norm(theta - proj @ theta)
    bound = math.exp(-poly.a2 * t) * np.linalg.norm(theta0) * (1 + 1e-6)
    assert residual <= bound
    report(3, f"sigma*={wt.sigma_star:.6f}, span residual {residual:.3e} <= {bound:.3e}")


def test_criterion_4_upsilon_limits(tmp_path):
    # Large-alpha limit via the sweep command with unit rates:
    # Upsilon - epsilon -> -beta*gamma/epsilon = -1.
    out = tmp_path / "sweep_large.csv"
    assert cli_main(["sweep", "--axis", "alpha", "--start", "1", "--stop", "1000",
                     "--samples", "7", "--log", "1", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    ups_large = float(last[header.index("upsilon")])
    assert ups_large - 1.0 == pytest.approx(-1.0, rel=0.05)

    out2 = tmp_path / "sweep_small.csv"
    assert cli_main(["sweep", "--axis", "alpha", "--start", "1e-6", "--stop", "1",
                     "--samples", "7", "--log", "1", "--output", str(out2)]) == 0
    lines2 = out2.read_text().strip().splitlines()
    ups_small = float(lines2[1].split(",")[header.index("upsilon")])
    assert ups_small > 1e2
    report(4, f"alpha=1e3 gives Upsilon-eps={ups_large - 1.0:.4f} (~ -1), "
              f"alpha=1e-6 gives Upsilon={ups_small:.1f} > 100")


def test_criterion_5_competition_instability():
    start = time.perf_counter()
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        p = all_ones(gamma=h, c=1.0, d=1.0)
        spec = competition_instability(p, h, 0.5)
        assert spec.unstable is True
        got = sorted(spec.eigenvalues.roots, key=lambda z: z.real)
        errors.append(max(abs(g - e) for g, e in zip(got, (-1.0, 0.0, 0.5))))
    assert errors[0] > errors[1] > errors[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"eigenvalues -> {{0, 0.5, -1}} with errors {errors[0]:.2e} > "
              f"{errors[1]:.2e} > {errors[2]:.2e} in {elapsed:.3f}s")


def test_criterion_6_cubic_lemma_equivalence():
    rng = np.random.default_rng(107)
    disagreements = 0
    checked = 0
    for _ in range(10_000):
        p = MonicCubic(*np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=3)))
        gap = p.a1 * p.a2 - p.a0
        if abs(gap) <= 1e-9 * (1.0 + abs(p.a1 * p.a2) + abs(p.a0)):
            continue
        checked += 1
        verdict = hurwitz_negative(p)
        max_re = max(np.roots([1.0, *p]).real)
        root_says_negative = max_re < 0
        criterion_says_negative = verdict is Classification.STABLE
        if root_says_negative != criterion_says_negative:
            disagreements += 1
    assert disagreements == 0
    report(6, f"{checked} cubics, zero criterion-vs-roots disagreements")


def test_criterion_7_pde_linearization_fidelity():
    start = time.perf_counter()
    p = UNSTABLE_DIFFUSIVE
    length = 8 * math.pi  # mode 1 has mu = 1/16, inside the unstable band
    eq = coexistence_state(p)
    t_obs = 4.0

    def deviation_defect(n, rho):
        field0 = single_mode_field(p, n, length, 1, rho)
        h = length / n
        cfg = IntegratorConfig(method="rk4", dt=h * h / 2.0, t_final=t_obs)
        (snap,) = simulate_pde(field0, p, cfg, [t_obs])
        k = 2 * math.pi / length
        # The discrete Laplacian sees the exact mode eigenvalue mu_h.
        mu_h = (2.0 - 2.0 * math.cos(k * h)) / (h * h)
        theta = expm(mode_matrix(p, mu_h) * t_obs) @ np.ones(3)
        x = snap.x
        defect = max(
            np.max(np.abs(comp - (ref + rho * th * np.sin(k * x))))
            for comp, ref, th in zip((snap.f, snap.v, snap.w), eq, theta)
        )
        return defect, snap

    defect_coarse, _ = deviation_defect(256, 1e-3)
    defect_fine, _ = deviation_defect(256, 1e-4)
    ratio = defect_coarse / defect_fine
    assert 50.0 <= ratio <= 200.0

    # Growth rate of the excited mode against the leading eigenvalue of A(k^2).
    k = 2 * math.pi / length
    A = mode_matrix(p, k * k)
    lam, V = np.linalg.eig(A)
    leading = np.argmax(lam.real)
    rate_expected = lam.real[leading]

    def measured_rate(n):
        field0 = single_mode_field(p, n, length, 1, 1e-5)
        h = length / n
        cfg = IntegratorConfig(method="rk4", dt=h * h / 2.0, t_final=8.0)
        snaps = simulate_pde(field0, p, cfg, [4.0, 8.0])
        x = snaps[0].x
        amps = []
        for snap in snaps:
            theta = np.array([
                2.0 / n * np.sum((comp - ref) * np.sin(k * x))
                for comp, ref in zip((snap.f, snap.v, snap.w), eq)
            ])
            # Project onto the leading eigenpair to remove phase oscillation.
            amps.append(abs(np.linalg.solve(V, theta)[leading]))
        return math.log(amps[1] / amps[0]) / 4.0

    err_h = abs(measured_rate(256) - rate_expected) / abs(rate_expected)
    err_h2 = abs(measured_rate(512) - rate_expected) / abs(rate_expected)
    assert err_h <= 0.02
    assert err_h2 <= 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"defect ratio {ratio:.1f} in [50, 200]; rate errors "
              f"{err_h:.2e} (h) and {err_h2:.2e} (h/2) in {elapsed:.1f}s")


def test_criterion_8_spiral_direction():
    offsets = (-0.1, 0.05, 0.1)  # 27 nearby starts, none exactly at the equilibrium
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_final=50.0)
    for p, expect_contract in ((all_ones(), True), (UNSTABLE, False)):
        eq = np.asarray(coexistence_state(p))
        agree = 0
        for df in offsets:
            for dv in offsets:
                for dw in offsets:
                    s0 = State(eq[0] + df, eq[1] + dv, eq[2] + dw)
                    traj = integrate_ode(s0, p, cfg)
                    d = np.linalg.norm(traj.states - eq, axis=1)
                    after_transient = d[traj.times > 10.0]
                    contracted = d[-1] < after_transient[0]
                    if contracted == expect_contract:
                        agree += 1
        assert agree == 27
    report(8, "all 27 trajectories contract for unit rates and expand for the unstable set")


def test_criterion_9_kernel_moments():
    result = kernel_moments(lambda r: math.exp(-r * r), 1, 2)
    assert result.moments[0] == pytest.approx(math.sqrt(math.pi), abs=1e-9)
    assert result.moments[1] == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-9)

    from scipy.integrate import quad

    errors = []
    for k in (0.1, 0.05):
        direct, _ = quad(lambda y: math.exp(-y * y) * math.cos(k * y), -30.0, 30.0, epsrel=1e-12)
        series = result.moments[0] - result.moments[1] * k**2 + result.moments[2] * k**4
        errors.append(abs(direct - series))
    ratio = errors[0] / errors[1]
    assert 40.0 <= ratio <= 100.0  # O(k^6) remainder halving k gives ~64
    report(9, f"Gaussian moments match closed forms; O(k^6) ratio {ratio:.1f}")

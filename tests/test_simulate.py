import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fvw import (
    CFLViolation,
    CFLWarning,
    FieldState,
    IntegratorConfig,
    ModelParams,
    State,
    StepFailure,
    ValidationError,
    all_ones,
    coexistence_state,
    integrate_ode,
    simulate_pde,
    single_mode_field,
    uniform_field,
)
from fvw.simulate import _fmt, _write_csv, write_snapshots_csv


def dist_to_equilibrium(traj, eq):
    return np.linalg.norm(traj.states - np.asarray(eq), axis=1)


# Reference integrators: the original array-based algorithms (State-boxed RHS,
# numpy-array RK4, np.roll Laplacian, np.array stacking). The library's
# tuple-based path performs the same floating-point operations in the same
# order, so its output must match these bit for bit. The rk45 reference is
# scipy's RK45, whose decisions the library's driver takes with other sums.
def reference_rhs(y, p):
    f, v, w = y
    return np.asarray(State(
        f * (p.alpha * v - p.beta * w),
        v * (p.zeta * w - p.eta * f),
        p.gamma - p.delta * v * w - p.epsilon * w,
    ))


def reference_integrate_ode(s0, p, cfg):
    y0 = np.asarray(s0, dtype=float)
    if cfg.method == "rk45":
        sol = solve_ivp(lambda t, y: reference_rhs(y, p), (0.0, cfg.t_final), y0,
                        method="RK45", rtol=cfg.rtol, atol=cfg.atol)
        return sol.t, sol.y.T
    n_steps = max(1, math.ceil(cfg.t_final / cfg.dt))
    dt = cfg.t_final / n_steps
    states = np.empty((n_steps + 1, 3))
    states[0] = y = y0
    for i in range(n_steps):
        k1 = reference_rhs(y, p)
        k2 = reference_rhs(y + 0.5 * dt * k1, p)
        k3 = reference_rhs(y + 0.5 * dt * k2, p)
        k4 = reference_rhs(y + dt * k3, p)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = y
    return np.linspace(0.0, cfg.t_final, n_steps + 1), states


def reference_simulate_pde(field0, p, dt, snapshot_times):
    h = field0.domain_length / field0.grid_points

    def lap(u):
        return (np.roll(u, 1) + np.roll(u, -1) - 2.0 * u) / (h * h)

    def rhs(y):
        f, v, w = y
        return np.array([
            f * (p.alpha * v - p.beta * w) + p.c * lap(f),
            v * (p.zeta * w - p.eta * f),
            p.gamma - p.delta * v * w - p.epsilon * w + p.d * lap(w),
        ])

    y, t, out = np.array([field0.f, field0.v, field0.w]), field0.time, []
    for target in snapshot_times:
        n_steps = max(1, math.ceil((target - t) / dt))
        step = (target - t) / n_steps
        for _ in range(n_steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * step * k1)
            k3 = rhs(y + 0.5 * step * k2)
            k4 = rhs(y + step * k3)
            y = y + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = target
        out.append(y.copy())
    return out


@pytest.fixture
def distinct_params() -> ModelParams:
    """Seven distinct rates and c != d (Upsilon = 0.152), so a swapped rate or coefficient changes the bits."""
    return ModelParams(alpha=1.3, beta=0.7, gamma=1.1, delta=0.9, epsilon=0.4, eta=1.6, zeta=0.8, c=1.0, d=0.3)


class TestBitIdentity:
    @pytest.mark.parametrize("params", ["ones", "unstable_params", "distinct_params"])
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_integrate_ode_matches_reference(self, request, params, method):
        p = request.getfixturevalue(params)
        eq = coexistence_state(p)
        s0 = State(eq.f + 0.07, eq.v - 0.04, eq.w + 0.09)
        cfg = IntegratorConfig(method=method, dt=0.01, t_final=20.0)
        traj = integrate_ode(s0, p, cfg)
        times, states = reference_integrate_ode(s0, p, cfg)
        if method == "rk4":
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)
        else:
            # The rk45 driver takes RK45's decisions but sums in Python floats where RK45 takes np.dot, so it
            # matches solve_ivp in its steps and to rounding in its values, not bit for bit.
            assert traj.times[-1] == cfg.t_final
            assert len(traj.times) == len(times)
            np.testing.assert_allclose(traj.states[-1], states[-1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("params, changes, n, dtype", [
        pytest.param("unstable_diffusive_params", {}, 64, np.float64, id="unstable_diffusive_params"),
        pytest.param("distinct_params", {}, 64, np.float64, id="distinct_params"),
        pytest.param("distinct_params", {"c": 0.0}, 64, np.float64, id="c=0"),
        pytest.param("distinct_params", {"d": 0.0}, 64, np.float64, id="d=0"),
        pytest.param("distinct_params", {}, 64, np.float32, id="float32"),
        pytest.param("distinct_params", {}, 8, np.float64, id="N=8"),
    ])
    def test_simulate_pde_matches_reference(self, request, params, changes, n, dtype):
        p = dataclasses.replace(request.getfixturevalue(params), **changes)
        mode = single_mode_field(p, n, 2 * math.pi, 2, 1e-2, (1.0, -0.6, 0.3), (0.4, 0.9, -0.7))
        field0 = FieldState(mode.domain_length, *(u.astype(dtype) for u in (mode.f, mode.v, mode.w)))
        snapshot_times = [0.2, 0.45, 0.7]
        dt = 0.004  # below the CFL bound h^2/2 ~ 4.8e-3 at N = 64, so no clamping
        snaps = simulate_pde(field0, p, IntegratorConfig(method="rk4", dt=dt), snapshot_times)
        reference = reference_simulate_pde(field0, p, dt, snapshot_times)
        assert len(snaps) == len(reference) == 3
        for snap, ref, t in zip(snaps, reference, snapshot_times):
            assert snap.time == t
            for field, ref_field in zip((snap.f, snap.v, snap.w), ref):
                assert field.dtype == dtype and np.array_equal(field, ref_field)

    def test_simulate_pde_leaves_the_initial_field(self, distinct_params):
        field0 = single_mode_field(distinct_params, 64, 2 * math.pi, 2, 1e-2)
        before = [u.copy() for u in (field0.f, field0.v, field0.w)]
        simulate_pde(field0, distinct_params, IntegratorConfig(method="rk4", dt=0.004), [0.2, 0.45])
        for u, was in zip((field0.f, field0.v, field0.w), before):
            assert np.array_equal(u, was)

    def test_simulate_pde_snapshot_is_not_overwritten(self, distinct_params):
        # A snapshot that shared memory with the march would change as the run goes on to later snapshots.
        field0 = single_mode_field(distinct_params, 64, 2 * math.pi, 2, 1e-2)
        cfg = IntegratorConfig(method="rk4", dt=0.004)
        (alone,) = simulate_pde(field0, distinct_params, cfg, [0.2])
        first, _ = simulate_pde(field0, distinct_params, cfg, [0.2, 0.45])
        for u, want in zip((first.f, first.v, first.w), (alone.f, alone.v, alone.w)):
            assert np.array_equal(u, want)


class TestIntegrateOde:
    def test_equilibrium_is_preserved(self, ones):
        eq = coexistence_state(ones)
        traj = integrate_ode(eq, ones, IntegratorConfig(method="rk4", dt=0.01, t_final=50.0))
        assert dist_to_equilibrium(traj, eq).max() <= 1e-8
        assert traj.negativity_flag is False

    def test_inward_spiral_when_stable(self, ones):
        eq = coexistence_state(ones)
        s0 = State(eq.f + 0.1, eq.v + 0.1, eq.w + 0.1)
        traj = integrate_ode(s0, ones, IntegratorConfig(method="rk4", dt=0.01, t_final=50.0))
        d = dist_to_equilibrium(traj, eq)
        assert d[-1] < d[0]

    def test_outward_spiral_when_unstable(self, unstable_params):
        eq = coexistence_state(unstable_params)
        s0 = State(eq.f + 0.01, eq.v + 0.01, eq.w + 0.01)
        traj = integrate_ode(s0, unstable_params, IntegratorConfig(method="rk4", dt=0.01, t_final=50.0))
        d = dist_to_equilibrium(traj, eq)
        assert d[-1] > d[0]

    def test_rk4_fourth_order_convergence(self, ones):
        s0 = State(1.0, 0.5, 1.5)
        reference = integrate_ode(
            s0, ones, IntegratorConfig(method="rk45", t_final=5.0, rtol=1e-12, atol=1e-13)
        ).final_state()
        errors = []
        for dt in (0.1, 0.05, 0.025):
            final = integrate_ode(
                s0, ones, IntegratorConfig(method="rk4", dt=dt, t_final=5.0)
            ).final_state()
            errors.append(np.linalg.norm(np.asarray(final) - np.asarray(reference)))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        for r in ratios:
            assert 10.0 < r < 22.0  # ~16 for a 4th-order method

    def test_adaptive_matches_fixed(self, ones):
        s0 = State(1.0, 0.5, 1.5)
        fixed = integrate_ode(s0, ones, IntegratorConfig(method="rk4", dt=0.001, t_final=10.0))
        adaptive = integrate_ode(
            s0, ones, IntegratorConfig(method="rk45", t_final=10.0, rtol=1e-10, atol=1e-12)
        )
        assert np.allclose(fixed.final_state(), adaptive.final_state(), atol=1e-7)

    def test_negativity_flag(self, ones):
        traj = integrate_ode(
            State(0.5, -0.5, 0.5), ones, IntegratorConfig(method="rk4", dt=0.01, t_final=1.0)
        )
        assert traj.negativity_flag is True

    def test_nonnegativity_preserved_in_positive_octant(self, ones):
        rng = np.random.default_rng(71)
        for _ in range(10):
            s0 = State(*rng.uniform(0.3, 1.5, size=3))
            traj = integrate_ode(s0, ones, IntegratorConfig(method="rk4", dt=0.01, t_final=5.0))
            assert traj.negativity_flag is False

    def test_times_strictly_increasing(self, ones):
        traj = integrate_ode(
            State(1.0, 1.0, 1.0), ones, IntegratorConfig(method="rk45", t_final=3.0)
        )
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == len(traj.states)

    def test_rk45_steps_match_scipy_through_rejections(self):
        # Stiff rates under which RK45 rejects 15 of its steps. A retried step that grew past the rejected one,
        # which RK45 forbids, would make the driver take 133 steps here instead of RK45's 135.
        p = ModelParams(0.08670433400613983, 0.5492754757289631, 78.83966550820486, 38.96820779697953,
                        23.81903433409528, 0.37120913688729273, 0.9377608008515699)
        s0 = State(1.3462880791426373, 3.199633444459782, 0.5300540040448456)
        cfg = IntegratorConfig(method="rk45", t_final=2.721801529255714)
        traj = integrate_ode(s0, p, cfg)
        times, _ = reference_integrate_ode(s0, p, cfg)
        assert len(traj.times) == len(times) == 136

    @given(rates=st.lists(st.floats(math.log(1e-2), math.log(1e2)).map(math.exp), min_size=7, max_size=7),
           offsets=st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
           t_final=st.floats(1e-2, 10.0))
    def test_rk45_against_dop853(self, rates, offsets, t_final):
        """The rk45 final state lies within the benchmark's 1e4 rtol of max(1, |y|) of a tight DOP853 run, or no
        further off than scipy's RK45, whose decisions the driver takes. The start lies within 0.1 of E1 and, by
        reflection, in the positive octant the densities keep. Even there a strongly unstable spiral can drive f
        or v so near 0 that every integrator's steps cross into negative values and blow up; RK45 then fails,
        and so must the driver."""
        p = ModelParams(*rates)
        s0 = State(*(abs(e + u) for e, u in zip(coexistence_state(p), offsets)))
        cfg = IntegratorConfig(method="rk45", t_final=t_final)

        def run(method, rtol, atol):
            return solve_ivp(lambda t, y: reference_rhs(y, p), (0.0, t_final), np.asarray(s0, dtype=float),
                             method=method, rtol=rtol, atol=atol)

        rk45 = run("RK45", cfg.rtol, cfg.atol)
        if not rk45.success:
            with pytest.raises(StepFailure):
                integrate_ode(s0, p, cfg)
            return
        traj = integrate_ode(s0, p, cfg)
        assert np.all(np.diff(traj.times) > 0) and traj.times[-1] == t_final
        dop853 = run("DOP853", 1e-12, 1e-14)
        if dop853.success:
            ref = dop853.y[:, -1]
            scale = max(1.0, np.abs(ref).max())
            off, rk45_off = (np.abs(y - ref).max() / scale for y in (traj.states[-1], rk45.y[:, -1]))
            assert off <= max(1e4 * cfg.rtol, 2.0 * rk45_off)

    def test_trajectory_csv(self, ones, tmp_path):
        traj = integrate_ode(
            State(1.0, 1.0, 1.0), ones, IntegratorConfig(method="rk4", dt=0.5, t_final=1.0)
        )
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,f,v,w"
        assert len(lines) == len(traj.times) + 1

    def test_rk45_evaluation_cap(self, ones, monkeypatch):
        # Once the spiral settles, RK45's steps stay near 1e6: t_final = 1e300 would never end without the cap.
        monkeypatch.setattr("fvw.simulate._MAX_ROWS", 100)
        with pytest.raises(ValidationError, match="rk45 needs more than 600 right-hand side evaluations"):
            integrate_ode(State(1.0, 0.5, 1.5), ones, IntegratorConfig(method="rk45", t_final=1e300))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValidationError):
            IntegratorConfig(method="rk4", dt=-0.1)
        with pytest.raises(ValidationError):
            IntegratorConfig(method="rk4", t_final=0.0)
        with pytest.raises(ValidationError):
            IntegratorConfig(method="rk4", t_final=math.inf)


class TestSimulatePde:
    def test_uniform_equilibrium_stays_uniform(self):
        p = all_ones(c=1.0, d=1.0)
        eq = coexistence_state(p)
        field0 = uniform_field(eq, 64, 2 * math.pi)
        (snap,) = simulate_pde(field0, p, IntegratorConfig(method="rk4", dt=0.001, t_final=10.0), [10.0])
        for comp, ref in zip((snap.f, snap.v, snap.w), eq):
            assert np.abs(comp - ref).max() <= 1e-8

    def _mode_energy(self, snap, p, mode):
        eq = coexistence_state(p)
        k = 2 * math.pi * mode / snap.domain_length
        x = snap.x
        total = 0.0
        for comp, ref in zip((snap.f, snap.v, snap.w), eq):
            dev = comp - ref
            a = 2.0 / snap.grid_points * np.sum(dev * np.sin(k * x))
            b = 2.0 / snap.grid_points * np.sum(dev * np.cos(k * x))
            total += a * a + b * b
        return math.sqrt(total)

    def test_high_frequency_mode_decays(self, unstable_diffusive_params):
        # mu = k^2 = 1 > mu_threshold ~ 0.137: perturbation must decay.
        p = unstable_diffusive_params
        field0 = single_mode_field(p, 64, 2 * math.pi, 1, 1e-4)
        cfg = IntegratorConfig(method="rk4", dt=0.004, t_final=20.0)
        snaps = simulate_pde(field0, p, cfg, [5.0, 10.0, 15.0, 20.0])
        energies = [self._mode_energy(s, p, 1) for s in snaps]
        assert energies[0] < 1e-4
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_low_frequency_mode_grows(self, unstable_diffusive_params):
        # Domain of length 8*pi puts mode 1 at mu = 1/16 < mu_threshold.
        p = unstable_diffusive_params
        field0 = single_mode_field(p, 64, 8 * math.pi, 1, 1e-4)
        cfg = IntegratorConfig(method="rk4", dt=0.03, t_final=20.0)
        snaps = simulate_pde(field0, p, cfg, [10.0, 20.0])
        energies = [self._mode_energy(s, p, 1) for s in snaps]
        assert energies[-1] > energies[0] > 1e-4

    def test_cfl_clamps_with_warning(self):
        p = all_ones(c=1.0, d=1.0)
        field0 = uniform_field(coexistence_state(p), 64, 2 * math.pi)
        cfg = IntegratorConfig(method="rk4", dt=0.5, t_final=0.5)
        with pytest.warns(CFLWarning):
            simulate_pde(field0, p, cfg, [0.5])

    def test_cfl_violation_without_clamping(self):
        p = all_ones(c=1.0, d=1.0)
        field0 = uniform_field(coexistence_state(p), 64, 2 * math.pi)
        cfg = IntegratorConfig(method="rk4", dt=0.5, t_final=0.5)
        with pytest.raises(CFLViolation):
            simulate_pde(field0, p, cfg, [0.5], clamp=False)

    def test_blow_up_time(self):
        # The fields first go non-finite at step 514 of dt = 1e-3 (t = 0.514), not at a snapshot time;
        # a check every 16 steps reports t = 0.528.
        p = ModelParams(alpha=50.0, beta=1.0, gamma=1.0, delta=1.0, epsilon=0.01, eta=1.0, zeta=1.0, c=1.0, d=1.0)
        field0 = single_mode_field(p, 64, 2 * math.pi, 1, 0.5)
        with pytest.raises(StepFailure) as exc:
            simulate_pde(field0, p, IntegratorConfig(method="rk4", dt=1e-3, t_final=5.0), [1.0, 2.0, 3.0, 4.0, 5.0])
        assert str(exc.value) == "fields became non-finite at t=0.52800000000000002"

    def test_adaptive_method_rejected(self):
        p = all_ones(c=1.0, d=1.0)
        field0 = uniform_field(coexistence_state(p), 64, 2 * math.pi)
        with pytest.raises(ValidationError):
            simulate_pde(field0, p, IntegratorConfig(method="rk45", t_final=1.0), [1.0])

    def test_grid_too_small_rejected(self, ones):
        with pytest.raises(ValidationError):
            uniform_field(State(1.0, 1.0, 1.0), 4, 1.0)

    def test_field_csv_matches_snapshots_csv(self, unstable_diffusive_params, tmp_path):
        snap = single_mode_field(unstable_diffusive_params, 16, 2 * math.pi, 3, 0.1, cos_amplitudes=(0.5, -1.0, 2.0))
        single, many = tmp_path / "single.csv", tmp_path / "many.csv"
        snap.write_csv(single)
        write_snapshots_csv([snap], many)
        assert single.read_bytes() == many.read_bytes()


class TestCsvWriter:
    def test_bytes_match_the_csv_module(self, tmp_path):
        # _write_csv joins _fmt cells with commas and ends lines with \r\n; no cell needs quoting, so the
        # bytes must be those csv.writer writes for the same cells.
        header = ["label", "flag", "n", "x"]
        rows = [
            ["coexistence", True, 3, 0.1],
            ["trivial", np.bool_(False), np.int64(-7), np.float64(1 / 3)],
            ["stable", np.bool_(True), 0, math.nan],
            ["unstable", False, np.int32(2**31 - 1), math.inf],
            ["neutral", True, -(2**60), -math.inf],
            ["zero", False, 1, -0.0],
            ["tiny", True, 2, 5e-324],
            [np.float64(-1e300), 1.7976931348623157e308, np.float64(math.nan), np.float64(-0.0)],
        ]
        path = tmp_path / "out.csv"
        _write_csv(path, header, rows)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)
        assert path.read_bytes() == want.getvalue().encode()
        assert path.read_bytes().splitlines()[1:3] == [b"coexistence,true,3,0.10000000000000001",
                                                       b"trivial,false,-7,0.33333333333333331"]

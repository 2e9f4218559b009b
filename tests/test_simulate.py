import csv
import dataclasses
import io
import math
import os
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fvw import (
    CFLWarning,
    FieldState,
    IntegratorConfig,
    ModelParams,
    NumericalFailure,
    State,
    ValidationError,
    all_ones,
    coexistence_state,
    integrate_ode,
    simulate_pde,
    single_mode_field,
    uniform_field,
)
import fvw.simulate
from fvw.model import _RATE_NAMES
from fvw.simulate import _fmt, _rk4_march, _write_csv, write_snapshots_csv


def csv_module_bytes(header, rows) -> bytes:
    """The bytes csv.writer writes for the header and the _fmt cells of rows: the oracle of `_write_csv`."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return out.getvalue().encode()


def dist_to_equilibrium(traj, eq):
    return np.linalg.norm(traj.states - np.asarray(eq), axis=1)


# Reference integrators: the original array-based algorithms (State-boxed RHS,
# numpy-array RK4, np.roll Laplacian, np.array stacking). The library's
# Python-float path performs the same floating-point operations in the same
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


@pytest.fixture
def log_uniform_params() -> ModelParams:
    """One seeded draw of the seven rates, log-uniform in [1e-2, 1e2]: alpha ~ 24, delta ~ 0.11 and
    E1 ~ (14, 0.19, 0.43)."""
    rng = random.Random(0)
    return ModelParams(**{name: 10 ** rng.uniform(-2.0, 2.0) for name in _RATE_NAMES})


class TestBitIdentity:
    @pytest.mark.parametrize("method, params, s0, dt, t_final", [
        *(pytest.param(method, params, None, 0.01, 20.0, id=f"{method}-{params}")
          for method in ("rk4", "rk45") for params in ("ones", "unstable_params", "distinct_params")),
        # The rk4 march writes the reaction terms out in each stage, so each of the twelve is checked at magnitudes
        # the starts near E1 miss: from this start f, v and w span 1e-24 to 30, and the drawn rates span 1e-2 to 1e2.
        pytest.param("rk4", "distinct_params", State(1e-3, 30.0, 1e-2), 0.01, 20.0,
                     id="rk4-distinct_params-far-from-E1"),
        pytest.param("rk4", "log_uniform_params", None, 0.01, 20.0, id="rk4-log_uniform_params"),
        # t_final / dt = 24.29 takes 25 steps of 0.068, and 25 x 0.068 rounds to 1.7000000000000002: the last
        # time must still be linspace's endpoint, t_final.
        pytest.param("rk4", "distinct_params", None, 0.07, 1.7, id="rk4-distinct_params-partial-step"),
    ])
    def test_integrate_ode_matches_reference(self, request, method, params, s0, dt, t_final):
        p = request.getfixturevalue(params)
        if s0 is None:
            eq = coexistence_state(p)
            s0 = State(eq.f + 0.07, eq.v - 0.04, eq.w + 0.09)
        cfg = IntegratorConfig(method=method, dt=dt, t_final=t_final)
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

    @pytest.mark.parametrize("params, changes, n, dtype, dt, snapshot_times", [
        # dt = 0.004 lies below the CFL bound h^2/2 ~ 4.8e-3 at N = 64, so these runs are not clamped.
        pytest.param("unstable_diffusive_params", {}, 64, np.float64, 0.004, (0.2, 0.45, 0.7),
                     id="unstable_diffusive_params"),
        pytest.param("distinct_params", {}, 64, np.float64, 0.004, (0.2, 0.45, 0.7), id="distinct_params"),
        pytest.param("distinct_params", {"c": 0.0}, 64, np.float64, 0.004, (0.2, 0.45, 0.7), id="c=0"),
        pytest.param("distinct_params", {"d": 0.0}, 64, np.float64, 0.004, (0.2, 0.45, 0.7), id="d=0"),
        pytest.param("distinct_params", {}, 64, np.float32, 0.004, (0.2, 0.45, 0.7), id="float32"),
        pytest.param("distinct_params", {}, 8, np.float64, 0.004, (0.2, 0.45, 0.7), id="N=8"),
        # The benchmark's geometry: the requested dt = 1e-3 is clamped to the CFL bound h^2/2 at both sizes.
        pytest.param("distinct_params", {}, 256, np.float64, 1e-3, (0.01, 0.025, 0.04), id="N=256-clamped"),
        pytest.param("distinct_params", {}, 1024, np.float64, 1e-3, (0.001, 0.0025, 0.004), id="N=1024-clamped"),
    ])
    def test_simulate_pde_matches_reference(self, request, params, changes, n, dtype, dt, snapshot_times):
        p = dataclasses.replace(request.getfixturevalue(params), **changes)
        mode = single_mode_field(p, n, 2 * math.pi, 2, 1e-2, (1.0, -0.6, 0.3), (0.4, 0.9, -0.7))
        field0 = FieldState(mode.domain_length, *(u.astype(dtype) for u in (mode.f, mode.v, mode.w)))
        h = field0.domain_length / n
        step = min(dt, h * h / (2.0 * max(p.c, p.d)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            snaps = simulate_pde(field0, p, IntegratorConfig(method="rk4", dt=dt), snapshot_times)
        assert [w.category for w in caught] == ([CFLWarning] if step < dt else [])
        reference = reference_simulate_pde(field0, p, step, snapshot_times)
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
        # The flag reads the sign alone: v = -1e-10 stays negative, and in units 2^40 larger it would be -0.1.
        for s0 in (State(0.5, -0.5, 0.5), State(0.5, -1e-10, 0.5)):
            traj = integrate_ode(s0, ones, IntegratorConfig(method="rk4", dt=0.01, t_final=1.0))
            assert traj.states[:, 1].max() < 0.0
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

    def test_rk45_first_step_where_every_derivative_is_zero(self, ones):
        # At E0 = (0, 0, 1) with unit rates the right-hand side is exactly 0, so the first step takes RK45's
        # floor max(1e-6, 1e-3 h0) and each later step grows tenfold until the last is clipped to t_final.
        s0 = State(0.0, 0.0, 1.0)
        cfg = IntegratorConfig(method="rk45")
        traj = integrate_ode(s0, ones, cfg)
        times, states = reference_integrate_ode(s0, ones, cfg)
        assert len(traj.times) == len(times) == 9
        assert traj.times[1] == 1e-6 and traj.times[-1] == cfg.t_final
        assert np.array_equal(traj.times, times)  # the step control alone sets them, with RK45's arithmetic
        assert np.array_equal(traj.states, np.tile(s0, (9, 1))) and np.array_equal(states, traj.states)

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
            failure = r"^(adaptive integration failed: |state became non-finite at t=)"
            with pytest.raises(NumericalFailure, match=failure):
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

    def test_rk45_rows_stay_small_up_to_the_cap(self, ones, monkeypatch):
        # The run stores ~1e4 steps before the cap stops it: 32 B a step as (t, f, v, w) doubles.
        monkeypatch.setattr("fvw.simulate._MAX_ROWS", 10**4)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="rk45 needs more than 60000 right-hand side evaluations"):
                integrate_ode(State(1.0, 1.0, 1.0), ones, IntegratorConfig(method="rk45", t_final=1e300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 10**4

    def test_rk4_rows_stay_small(self, ones):
        # 24 B a row as (f, v, w) doubles, plus 8 B of times.
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_final=100.0)
        tracemalloc.start()
        try:
            traj = integrate_ode(State(1.0, 0.5, 1.5), ones, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 10**5 + 1
        assert peak < 64 * len(traj.times)

    def test_rk4_blow_up_time(self, ones):
        # f < 0 grows without bound; Python floats overflow to inf rather than raising, and the scan of the rows
        # names the first row that is not finite.
        with pytest.raises(NumericalFailure, match="state became non-finite") as info:
            integrate_ode(State(-1.0, 1.0, 1.0), ones, IntegratorConfig(t_final=10.0, dt=0.01))
        assert str(info.value) == "state became non-finite at t=1.01"

    def test_rk4_march_stops_after_a_blow_up(self, ones):
        # The state turns non-finite at row 101 of 10**6: the march ends at its first check, after one block of
        # steps, and integrate_ode still names row 101. The times are built for the rows returned only: the
        # whole grid of 10**6 + 1 would take 8 MB.
        rows = _rk4_march(ones, (-1.0, 1.0, 1.0), 0.01, 10**6)
        assert len(rows) == 3 * (1 + fvw.simulate._RK4_CHECK_STEPS)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalFailure, match="state became non-finite") as info:
                integrate_ode(State(-1.0, 1.0, 1.0), ones, IntegratorConfig(t_final=1e4, dt=0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "state became non-finite at t=1.01"
        assert peak < 10**6

    def test_trajectory_csv_streams_in_blocks(self, ones, tmp_path):
        # 100,001 rows, not a multiple of the block: the bytes are those csv.writer writes for the whole table,
        # while the peak holds one block of Python floats.
        traj = integrate_ode(State(1.0, 0.5, 1.5), ones, IntegratorConfig(method="rk4", dt=1e-3, t_final=100.0))
        tracemalloc.start()
        try:
            traj.write_csv(tmp_path / "blocks.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6
        rows = np.column_stack((traj.times, traj.states)).tolist()
        assert (tmp_path / "blocks.csv").read_bytes() == csv_module_bytes(["t", "f", "v", "w"], rows)

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
        # simulate_pde always clamps; a caller that must refuse a too-large dt turns CFLWarning into an error,
        # which raises before any step is taken.
        p = all_ones(c=1.0, d=1.0)
        field0 = uniform_field(coexistence_state(p), 64, 2 * math.pi)
        cfg = IntegratorConfig(method="rk4", dt=0.5, t_final=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CFLWarning)
            with pytest.raises(CFLWarning, match="dt clamped from 0.5 to CFL bound 0.00481914"):
                simulate_pde(field0, p, cfg, [0.5])

    @pytest.mark.parametrize("time0, times, t_final", [
        (0.0, [math.nan], 10.0),
        (0.0, [math.nan, 0.5], 10.0),
        (0.0, [0.5, math.inf], 10.0),
        (0.0, [-0.1], 10.0),
        (0.25, [0.5, 0.2], 10.0),
        (0.0, [0.2], 0.01),
    ], ids=["nan", "nan-then-finite", "inf", "negative", "before-initial-time", "after-t_final"])
    def test_invalid_snapshot_times_rejected(self, time0, times, t_final):
        # Every snapshot time must be finite, not before the initial field's time and not after cfg.t_final. A nan
        # time makes every later span nan: no step would be taken, and the initial field would come back labelled
        # with a later time. A time past t_final would run on beyond the configured end.
        p = all_ones(c=1.0, d=1.0)
        field0 = dataclasses.replace(uniform_field(coexistence_state(p), 64, 2 * math.pi), time=time0)
        with pytest.raises(ValidationError, match="is not finite or precedes the initial time"):
            simulate_pde(field0, p, IntegratorConfig(method="rk4", dt=1e-3, t_final=t_final), times)

    def test_snapshot_at_the_initial_time(self, distinct_params):
        # A snapshot time equal to the initial field's time is valid and returns that field unchanged.
        mode = single_mode_field(distinct_params, 64, 2 * math.pi, 2, 1e-2)
        field0 = dataclasses.replace(mode, time=0.25)
        first, second = simulate_pde(field0, distinct_params, IntegratorConfig(method="rk4", dt=0.004), [0.3, 0.25])
        assert (first.time, second.time) == (0.25, 0.3)
        for u, want in zip((first.f, first.v, first.w), (field0.f, field0.v, field0.w)):
            assert np.array_equal(u, want)

    def test_blow_up_time(self):
        # The fields first go non-finite at step 514 of dt = 1e-3 (t = 0.514), not at a snapshot time;
        # a check every 16 steps reports t = 0.528.
        p = ModelParams(alpha=50.0, beta=1.0, gamma=1.0, delta=1.0, epsilon=0.01, eta=1.0, zeta=1.0, c=1.0, d=1.0)
        field0 = single_mode_field(p, 64, 2 * math.pi, 1, 0.5)
        with pytest.raises(NumericalFailure, match="fields became non-finite") as exc:
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

    def test_unequal_field_lengths_rejected(self):
        with pytest.raises(ValidationError, match="f, v, w must have equal length"):
            FieldState(1.0, np.zeros(8), np.zeros(9), np.zeros(8))

    @pytest.mark.parametrize("fields, dims", [
        ((np.zeros((2, 8)), np.zeros((2, 8)), np.zeros((2, 8))), "(2, 2, 2)"),
        ((np.zeros(8), np.zeros(8), np.zeros((8, 1))), "(1, 1, 2)"),
        ((np.array(0.0), np.zeros(8), np.zeros(8)), "(0, 1, 1)"),
    ], ids=["2-d", "one-field-2-d", "0-d"])
    def test_fields_must_be_one_dimensional(self, fields, dims):
        # A 2-D field would fail deep in simulate_pde's broadcasting, and a 0-d one has no length.
        message = f"f, v, w must be one-dimensional, got dimensions {dims}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FieldState(1.0, *fields)

    @pytest.mark.parametrize("field, dtype", [(np.array(["1"] * 8), "<U1"), (np.ones(8, dtype=complex), "complex128")],
                             ids=["string", "complex"])
    def test_fields_must_hold_real_numbers(self, field, dtype):
        # Unchecked, a string field fails in simulate_pde with numpy's DTypePromotionError, and a complex one
        # marches to complex snapshots.
        message = f"f, v, w must hold real numbers, got dtypes ('{dtype}', 'float64', 'int64')"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FieldState(1.0, field, np.ones(8), np.ones(8, dtype=np.int64))

    @pytest.mark.parametrize("mode, sin_amplitudes, message", [
        (1.5, (1.0, 1.0, 1.0), "mode must be an integer in [1, N/2-1], got 1.5"),
        (1, (1.0, 1.0), "sin_amplitudes and cos_amplitudes must hold 3 values each, got 2 and 3"),
        (1, (1.0, 1.0, 1.0, 1.0), "sin_amplitudes and cos_amplitudes must hold 3 values each, got 4 and 3"),
    ], ids=["half-integer-mode", "two-amplitudes", "four-amplitudes"])
    def test_single_mode_field_arguments_rejected(self, unstable_diffusive_params, mode, sin_amplitudes, message):
        # Unchecked, mode = 1.5 gives a field that is not periodic, since sin(k(x + L)) = -sin(kx); two
        # amplitudes raise IndexError, and a fourth is ignored.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            single_mode_field(unstable_diffusive_params, 16, 2 * math.pi, mode, 1e-3, sin_amplitudes)

    def test_single_mode_field_takes_a_numpy_integer_mode(self, unstable_diffusive_params):
        p = unstable_diffusive_params
        got = single_mode_field(p, 16, 2 * math.pi, np.int64(2), 1e-3)
        want = single_mode_field(p, 16, 2 * math.pi, 2, 1e-3)
        assert all(np.array_equal(a, b) for a, b in zip((got.f, got.v, got.w), (want.f, want.v, want.w)))

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, time):
        # A field's time starts every snapshot span of `simulate_pde`, which would otherwise blame the snapshots.
        with pytest.raises(ValidationError, match="time must be finite"):
            FieldState(1.0, np.zeros(8), np.zeros(8), np.zeros(8), time=time)

    def test_grid_too_large_rejected_before_allocating(self, unstable_diffusive_params):
        # 10**7 + 2 points would take ~80 MB a field; the cap is checked before any of them is built.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="grid must have at most 10000000 points"):
                single_mode_field(unstable_diffusive_params, 10**7 + 2, 2 * math.pi, 1, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_snapshot_csv_streams_in_blocks(self, tmp_path):
        # 200,000 points, not a multiple of the block, then a second snapshot: the bytes are those csv.writer writes
        # for all the rows, while the peak holds one block rather than a snapshot's Python floats.
        rng = np.random.default_rng(0)
        snapshots = [FieldState(7.0, *rng.standard_normal((3, n)), time=t) for n, t in ((2 * 10**5, 0.25), (8, 1.5))]
        tracemalloc.start()
        try:
            write_snapshots_csv(snapshots, tmp_path / "blocks.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6
        rows = [row for s in snapshots
                for row in np.column_stack((np.full(s.grid_points, s.time), s.x, s.f, s.v, s.w)).tolist()]
        assert (tmp_path / "blocks.csv").read_bytes() == csv_module_bytes(["t", "x", "f", "v", "w"], rows)

    def test_snapshot_cells_capped_before_allocating(self, monkeypatch):
        # A repeated snapshot time takes no step, so the work cap does not bound the list: the cells it would
        # hold are checked against the row cap before any field is built.
        monkeypatch.setattr("fvw.simulate._MAX_ROWS", 1000)
        p = all_ones(c=1.0, d=1.0)
        field0 = single_mode_field(p, 16, 2 * math.pi, 1, 1e-3)
        cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
        assert len(simulate_pde(field0, p, cfg, [0.5] * 62)) == 62  # 992 cells
        times = [0.5] * 20000
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="snapshots x grid_points must be at most 1000, got 63 x 16"):
                simulate_pde(field0, p, cfg, times[:63])
            with pytest.raises(ValidationError, match="snapshots x grid_points must be at most 1000, got 20000 x 16"):
                simulate_pde(field0, p, cfg, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


class TestCsvWriter:
    def test_bytes_match_the_csv_module(self, tmp_path, monkeypatch):
        # _write_csv formats a block of columns by one `%`: a floating ndarray column as %.17g, every other column
        # through _fmt. No cell needs quoting, so the bytes must be those csv.writer writes for the _fmt cells.
        # Blocks of three rows put block boundaries inside both tables.
        monkeypatch.setattr("fvw.simulate._CSV_BLOCK_ROWS", 3)
        path = tmp_path / "out.csv"

        # Mixed cells within each column, given as rows and transposed: no column is an ndarray, so every cell
        # goes through _fmt.
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
        _write_csv(path, header, [list(zip(*rows))])
        assert path.read_bytes() == csv_module_bytes(header, rows)
        assert path.read_bytes().splitlines()[1:3] == [b"coexistence,true,3,0.10000000000000001",
                                                       b"trivial,false,-7,0.33333333333333331"]

        # Floating ndarray columns hold the special values, beside an int64 array whose values %.17g would round,
        # a list mixing ints, bools, a label and floats, and a bool array.
        specials = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3])
        columns = [
            specials,
            specials[::-1],
            np.array([1 / 3, -0.0, math.nan, -math.inf, 1e-45, 3.4028234663852886e38, 0.1], np.float32),
            np.array([2**60, -(2**60), 0, 1, -1, 2**53 + 1, 7]),
            [2**60, np.int64(-(2**62)), True, np.bool_(False), "label", 0.1, np.float64(-0.0)],
            np.array([True, False, True, True, False, False, True]),
        ]
        header = ["a", "b", "c", "n", "mixed", "flag"]
        _write_csv(path, header, [columns])
        assert path.read_bytes() == csv_module_bytes(header, zip(*columns))
        assert path.read_bytes().splitlines()[1] == (b"nan,0.33333333333333331,0.3333333432674408,"
                                                     b"1152921504606846976,1152921504606846976,true")

    def test_all_float_block_matches_the_csv_module(self, tmp_path):
        # A block whose cells are all floats, Python or np.float64, is formatted as %.17g throughout; one bool
        # among them sends every list column's cells through _fmt, and the bool keeps its own form.
        path = tmp_path / "out.csv"
        specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 1 / 3]
        columns = [
            tuple(specials),
            [np.float64(x) for x in reversed(specials)],
            np.array([1 / 3, -0.0, math.nan, -math.inf, 1e-45, 3.4028234663852886e38, 0.1], np.float32),
        ]
        _write_csv(path, ["a", "b", "c"], [columns])
        assert path.read_bytes() == csv_module_bytes(["a", "b", "c"], zip(*columns))
        assert path.read_bytes().splitlines()[1] == b"nan,0.33333333333333331,0.3333333432674408"
        columns[1][0] = True
        _write_csv(path, ["a", "b", "c"], [columns])
        assert path.read_bytes() == csv_module_bytes(["a", "b", "c"], zip(*columns))
        assert path.read_bytes().splitlines()[1] == b"nan,true,0.3333333432674408"

    def test_overwrite_matches_a_fresh_write(self, tmp_path):
        # The writer overwrites in place and cuts the file after the header: a 3-row table written over a
        # 201-row one leaves the bytes of a fresh write, with no tail of the old table.
        path, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        long, short = np.linspace(0.0, 1.0, 201), np.linspace(0.0, 1.0, 3)
        _write_csv(path, ["x", "y"], [(long, long * 3)])
        _write_csv(path, ["x", "y"], [(short, short * 3)])
        _write_csv(fresh, ["x", "y"], [(short, short * 3)])
        assert path.read_bytes() == fresh.read_bytes() == csv_module_bytes(["x", "y"], zip(short, short * 3))

    def test_failed_write_leaves_a_prefix_of_the_new_table(self, tmp_path):
        # A blocks iterator that raises after its first block leaves the header and that block, and no row of
        # the table the file held before.
        path = tmp_path / "out.csv"
        old = np.full(201, 7.0)
        _write_csv(path, ["x"], [(old,)])

        def blocks():
            yield (np.array([1.0, 2.0]),)
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            _write_csv(path, ["x"], blocks())
        assert path.read_bytes() == b"x\r\n1\r\n2\r\n"

    def test_links_see_the_new_bytes(self, tmp_path):
        # The file is written through a symlink and is the same inode afterwards, so a hard link sees the new
        # table too.
        target, symlink, hardlink = tmp_path / "target.csv", tmp_path / "sym.csv", tmp_path / "hard.csv"
        _write_csv(target, ["x"], [(np.linspace(0.0, 1.0, 201),)])
        symlink.symlink_to(target)
        os.link(target, hardlink)
        inode = os.stat(target).st_ino
        _write_csv(symlink, ["x"], [(np.array([0.5]),)])
        assert symlink.is_symlink() and os.stat(target).st_ino == inode
        assert target.read_bytes() == hardlink.read_bytes() == symlink.read_bytes() == b"x\r\n0.5\r\n"

    def test_device_output(self):
        # A device is written without the cut, which ftruncate would refuse with EINVAL.
        _write_csv(os.devnull, ["x"], [(np.linspace(0.0, 1.0, 5),)])

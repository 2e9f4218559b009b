"""Time integration: the reaction ODE system and the method-of-lines PDE on a 1D
periodic domain, started from uniform or single-mode fields."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, count
from types import SimpleNamespace
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CFLViolation, CFLWarning, StepFailure, ValidationError
from .model import _RATE_NAMES, ModelParams, State, _reaction, coexistence_state
from .model import reaction_rhs  # noqa: F401  (kept as fvw.simulate.reaction_rhs; the benchmark tracer patches it)

NEGATIVITY_TOL = -1e-9
_MAX_ROWS = 10**7  # most rows a run may hold (ODE rows, PDE grid points or snapshot cells, samples): ~300 B each
_MAX_WORK = 10**10  # most PDE steps x grid points a run may take: 0.2-1 us each, so hours at the cap
_MIN_RTOL = 100 * sys.float_info.epsilon  # scipy's RK45 floor on rtol


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 ("rk4") or adaptive Dormand-Prince ("rk45")."""

    method: str = "rk4"
    t_final: float = 10.0
    dt: float = 1e-2
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValidationError(f"unknown integrator method {self.method!r}")
        for name in ("t_final", "dt", "rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be a positive finite real, got {value}")
        if self.method == "rk45" and self.rtol < _MIN_RTOL:  # scipy would warn and raise it to its floor
            raise ValidationError(f"rk45 rtol must be at least 100 x machine epsilon = {_MIN_RTOL:.6g}, "
                                  f"got {self.rtol}")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # shape (n,), strictly increasing
    states: np.ndarray  # shape (n, 3), columns f, v, w
    negativity_flag: bool

    def final_state(self) -> State:
        return State(*self.states[-1])

    def write_csv(self, path) -> None:
        _write_csv(path, ["t", "f", "v", "w"], np.column_stack((self.times, self.states)).tolist())


def _fmt(x) -> str:
    """One CSV cell: a str verbatim, a bool as true/false, an int as digits, any other number as %.17g."""
    if type(x) is float:  # the common cell, tested first for speed
        return "%.17g" % x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (str, int, np.integer)):
        return str(x)
    return "%.17g" % x


def _write_csv(path, header: Sequence[str], rows) -> None:
    """The one CSV writer: a header line, then one line per row of cells formatted by _fmt. No cell
    holds a comma, quote or line break, so the lines are those of `csv.writer` (excel dialect)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(_fmt, row)) + "\r\n" for row in rows)


def _rk4_step(rhs, y, h):
    """One classical RK4 step of y' = rhs(*y) for a 3-tuple y of floats or equal-shape arrays; `simulate_pde`
    does the same arithmetic in place on one (3, N) array."""
    f, v, w = y
    a, b = 0.5 * h, h / 6.0
    k1f, k1v, k1w = rhs(f, v, w)
    k2f, k2v, k2w = rhs(f + a * k1f, v + a * k1v, w + a * k1w)
    k3f, k3v, k3w = rhs(f + a * k2f, v + a * k2v, w + a * k2w)
    k4f, k4v, k4w = rhs(f + h * k3f, v + h * k3v, w + h * k3w)
    return (
        f + b * (k1f + 2.0 * k2f + 2.0 * k3f + k4f),
        v + b * (k1v + 2.0 * k2v + 2.0 * k3v + k4v),
        w + b * (k1w + 2.0 * k2w + 2.0 * k3w + k4w),
    )


def integrate_ode(s0: State, p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reaction ODE system from s0 up to cfg.t_final; a non-finite state raises StepFailure."""
    if not all(map(math.isfinite, s0)):
        raise ValidationError(f"initial state must be finite, got {tuple(s0)}")
    rhs = _reaction(p)
    if cfg.method == "rk4":
        if cfg.t_final / cfg.dt > _MAX_ROWS - 1:
            raise ValidationError(f"t_final / dt must be at most {_MAX_ROWS - 1} steps, got {cfg.t_final / cfg.dt:.6g}")
        n_steps = max(1, math.ceil(cfg.t_final / cfg.dt))
        dt = cfg.t_final / n_steps
        times = np.linspace(0.0, cfg.t_final, n_steps + 1)
        y = tuple(map(float, s0))
        rows = [y]
        append = rows.append
        for _ in range(n_steps):
            y = _rk4_step(rhs, y, dt)
            append(y)
        # One pass over the flattened rows: ~2.5x faster than np.array(rows) at 5,001 rows, the same values.
        states = np.fromiter(chain.from_iterable(rows), float, 3 * len(rows)).reshape(-1, 3)
    else:
        # RK45 takes six evaluations a step, so this caps its stored steps near the rk4 row cap.
        max_evals, evals = 6 * _MAX_ROWS, count(1)

        def fun(t, y):
            if next(evals) > max_evals:
                raise ValidationError(f"rk45 needs more than {max_evals} right-hand side evaluations "
                                      f"to reach t_final={cfg.t_final:.6g}")
            return rhs(*y.tolist())

        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises StepFailure below
            sol = solve_ivp(fun, (0.0, cfg.t_final), np.asarray(s0, dtype=float), method="RK45",
                            rtol=cfg.rtol, atol=cfg.atol)
        if not sol.success:
            raise StepFailure(f"adaptive integration failed: {sol.message}")
        times = sol.t
        states = sol.y.T
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise StepFailure(f"state became non-finite at t={times[finite.argmin()]:.17g}")
    return Trajectory(times, states, negativity_flag=bool(states.min() < NEGATIVITY_TOL))


@dataclass(frozen=True)
class FieldState:
    """Discretized (f, v, w) on a periodic grid of N points over [0, L)."""

    domain_length: float
    f: np.ndarray
    v: np.ndarray
    w: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        n = len(self.f)
        if n < 8:
            raise ValidationError("grid must have at least 8 points")
        if len(self.v) != n or len(self.w) != n:
            raise ValidationError("f, v, w must have equal length")
        if not (math.isfinite(self.domain_length) and self.domain_length > 0):
            raise ValidationError(f"domain_length must be a positive finite real, got {self.domain_length}")

    @property
    def grid_points(self) -> int:
        return len(self.f)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.grid_points) * (self.domain_length / self.grid_points)

    def write_csv(self, path) -> None:
        write_snapshots_csv([self], path)


def uniform_field(s: State, n: int, domain_length: float) -> FieldState:
    return FieldState(
        domain_length,
        np.full(n, s.f),
        np.full(n, s.v),
        np.full(n, s.w),
    )


def single_mode_field(
    p: ModelParams,
    n: int,
    domain_length: float,
    mode: int,
    rho: float,
    sin_amplitudes: Sequence[float] = (1.0, 1.0, 1.0),
    cos_amplitudes: Sequence[float] = (0.0, 0.0, 0.0),
) -> FieldState:
    """Coexistence equilibrium plus a single resolved Fourier mode of amplitude rho.

    The wavenumber is k = 2 pi mode / domain_length, so the discrete and
    continuous modes coincide exactly.
    """
    if not 1 <= mode <= n // 2 - 1:
        raise ValidationError(f"mode must lie in [1, N/2-1], got {mode}")
    if n > _MAX_ROWS:
        raise ValidationError(f"grid must have at most {_MAX_ROWS} points")
    if not all(map(math.isfinite, (rho, *sin_amplitudes, *cos_amplitudes))):
        raise ValidationError(f"rho and the mode amplitudes must be finite, got rho={rho}")
    eq = uniform_field(coexistence_state(p), n, domain_length)  # checks domain_length before the division below
    k = 2.0 * math.pi * mode / domain_length
    s_wave, c_wave = np.sin(k * eq.x), np.cos(k * eq.x)
    fields = [u + rho * (sin_amplitudes[i] * s_wave + cos_amplitudes[i] * c_wave)
              for i, u in enumerate((eq.f, eq.v, eq.w))]
    return FieldState(domain_length, *fields)


def cfl_bound(h: float, p: ModelParams) -> float:
    """Explicit-stepping stability bound dt <= h^2 / (2 max(c, d))."""
    dmax = max(p.c, p.d)
    return math.inf if dmax == 0.0 else h * h / (2.0 * dmax)


def simulate_pde(
    field0: FieldState,
    p: ModelParams,
    cfg: IntegratorConfig,
    snapshot_times: Sequence[float],
    clamp: bool = True,
) -> list[FieldState]:
    """March the reaction-diffusion system with explicit RK4 steps and
    second-order periodic central differences; returns snapshots at the
    requested times (the initial field is not included unless requested).

    The time step is clamped to the diffusion CFL bound (with a CFLWarning)
    unless clamp=False, in which case violating the bound raises CFLViolation. More than
    _MAX_WORK steps of the clamped dt times grid points, or an h^2 outside the normal floats, raise ValidationError.
    The fields are checked every 16 steps and at each snapshot; the first check that
    finds a non-finite value raises StepFailure naming its time.
    """
    if cfg.method != "rk4":
        raise ValidationError("simulate_pde uses fixed-step explicit integration (method 'rk4')")
    times = sorted(float(t) for t in snapshot_times)
    if times and times[0] < 0.0:
        raise ValidationError("snapshot times must be nonnegative")

    h = field0.domain_length / field0.grid_points
    bound = cfl_bound(h, p)
    if bound == 0.0 or not sys.float_info.min <= h * h < math.inf:
        raise ValidationError(f"domain_length / grid_points = {h:.6g} puts h^2 or the CFL bound outside the normal floats")
    if cfg.dt > bound and not clamp:
        raise CFLViolation(f"dt={cfg.dt} exceeds the diffusion stability bound {bound:.6g}")
    dt = min(cfg.dt, bound)
    if times and (times[-1] - field0.time) / dt * field0.grid_points > _MAX_WORK:
        raise ValidationError(f"the snapshot times need more than {_MAX_WORK:.0e} steps x grid points at dt={dt:.6g}")
    if dt < cfg.dt:
        warnings.warn(f"dt clamped from {cfg.dt} to CFL bound {bound:.6g}", CFLWarning)

    # The march holds (f, v, w) as the rows of one (3, N) array and writes every stage into preallocated
    # buffers. Each scalar is a 0-d array of the march's dtype, which numpy multiplies faster than a Python
    # float; each element still sees the operations of `_rk4_step` in its order, so the bits are the same.
    ftype = np.result_type(1.0, field0.f, field0.v, field0.w)
    reaction = _reaction(SimpleNamespace(**{name: np.asarray(getattr(p, name), ftype) for name in _RATE_NAMES}))
    coeffs = np.array([[p.c], [p.d]], ftype)
    hh, two = np.asarray(h * h, ftype), np.asarray(2.0, ftype)
    n = field0.grid_points
    pad, lap, twice = np.empty((2, n + 2), ftype), np.empty((2, n), ftype), np.empty((2, n), ftype)
    left, right = pad[:, :-2], pad[:, 2:]

    def rhs(y, k):
        """k = the right-hand side at y: the reaction rows plus [[c], [d]] times the periodic Laplacian of f and w."""
        k[0], k[1], k[2] = reaction(y[0], y[1], y[2])
        u = y[::2]
        np.concatenate((u[:, -1:], u, u[:, :1]), axis=1, out=pad)
        np.add(left, right, out=lap)
        np.subtract(lap, np.multiply(two, u, out=twice), out=lap)
        np.divide(lap, hh, out=lap)
        np.multiply(coeffs, lap, out=lap)
        diffusive = k[::2]
        np.add(diffusive, lap, out=diffusive)

    snapshots = []
    t = field0.time
    y = np.array((field0.f, field0.v, field0.w), ftype)
    k1, k, stage = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for target in times:
        if target < t:
            raise ValidationError("snapshot times must not precede the initial time")
        span = target - t
        n_steps = max(1, math.ceil(span / dt)) if span > 0 else 0
        step = span / n_steps if n_steps else 0.0
        a, b, h_step = (np.asarray(x, ftype) for x in (0.5 * step, step / 6.0, step))
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises StepFailure below
            for i in range(1, n_steps + 1):
                # One RK4 step: k1 accumulates k1 + 2 k2 + 2 k3 + k4 while k holds each later stage.
                rhs(y, k1)
                rhs(np.add(y, np.multiply(a, k1, out=stage), out=stage), k)  # k2
                np.add(y, np.multiply(a, k, out=stage), out=stage)
                np.add(k1, np.multiply(two, k, out=k), out=k1)
                rhs(stage, k)  # k3
                np.add(y, np.multiply(h_step, k, out=stage), out=stage)
                np.add(k1, np.multiply(two, k, out=k), out=k1)
                rhs(stage, k)  # k4
                np.add(k1, k, out=k1)
                np.add(y, np.multiply(b, k1, out=k1), out=y)
                # A scan of the fields costs ~4 % of an N = 256 step; every 16th step it is noise.
                if (i % 16 == 0 or i == n_steps) and not np.isfinite(y).all():
                    raise StepFailure(f"fields became non-finite at t={t + i * step:.17g}")
        t = target
        snapshots.append(FieldState(field0.domain_length, *y.copy(), time=t))
    return snapshots


def write_snapshots_csv(snapshots: Sequence[FieldState], path) -> None:
    """Long-form CSV (t, x, f, v, w) across all snapshots."""
    rows = []
    for snap in snapshots:
        rows += np.column_stack((np.full(snap.grid_points, snap.time), snap.x, snap.f, snap.v, snap.w)).tolist()
    _write_csv(path, ["t", "x", "f", "v", "w"], rows)

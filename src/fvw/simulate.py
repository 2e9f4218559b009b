"""Time integration: the reaction ODE system, the method-of-lines PDE on a 1D
periodic domain, and the decoupled single-mode linearized system."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CFLViolation, CFLWarning, StepFailure, ValidationError
from .model import ModelParams, State, _reaction_terms, coexistence_state
from .model import reaction_rhs  # noqa: F401  (kept as fvw.simulate.reaction_rhs; the benchmark tracer patches it)
from .stability import mode_matrix

NEGATIVITY_TOL = -1e-9
MAX_COUNT = 2**53  # most grid points, samples, snapshots or steps a run may ask for: 8 bytes each is 64 PiB


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
        if self.method == "rk4" and self.t_final / self.dt > MAX_COUNT:
            raise ValidationError(f"t_final / dt must be at most {MAX_COUNT} steps")


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
    """The one CSV writer: a header line, then one line per row of cells formatted by _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)


def _rk4_step(rhs, y, h):
    """One classical RK4 step of y' = rhs(*y) for a 3-tuple y of floats or equal-shape arrays."""
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
    if cfg.method == "rk4":
        n_steps = max(1, math.ceil(cfg.t_final / cfg.dt))
        dt = cfg.t_final / n_steps
        times = np.linspace(0.0, cfg.t_final, n_steps + 1)
        rhs = partial(_reaction_terms, p)
        rows = [tuple(map(float, s0))]
        for _ in range(n_steps):
            rows.append(_rk4_step(rhs, rows[-1], dt))
        states = np.array(rows)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises StepFailure below
            sol = solve_ivp(lambda t, y: np.array(_reaction_terms(p, *y)), (0.0, cfg.t_final),
                            np.asarray(s0, dtype=float), method="RK45", rtol=cfg.rtol, atol=cfg.atol)
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
    if n > MAX_COUNT:
        raise ValidationError(f"grid must have at most {MAX_COUNT} points")
    eq = uniform_field(coexistence_state(p), n, domain_length)  # checks domain_length before the division below
    k = 2.0 * math.pi * mode / domain_length
    s_wave, c_wave = np.sin(k * eq.x), np.cos(k * eq.x)
    fields = [u + rho * (sin_amplitudes[i] * s_wave + cos_amplitudes[i] * c_wave)
              for i, u in enumerate((eq.f, eq.v, eq.w))]
    return FieldState(domain_length, *fields)


def _periodic_laplacian(u: np.ndarray, h: float) -> np.ndarray:
    padded = np.concatenate((u[-1:], u, u[:1]))
    return (padded[:-2] + padded[2:] - 2.0 * u) / (h * h)


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
    unless clamp=False, in which case violating the bound raises CFLViolation.
    The first snapshot with a non-finite field raises StepFailure.
    """
    if p.ell != 0.0:
        raise ValidationError("the nonlinear competition PDE (ell != 0) is not simulated")
    if cfg.method != "rk4":
        raise ValidationError("simulate_pde uses fixed-step explicit integration (method 'rk4')")
    times = sorted(float(t) for t in snapshot_times)
    if times and times[0] < 0.0:
        raise ValidationError("snapshot times must be nonnegative")

    h = field0.domain_length / field0.grid_points
    bound = cfl_bound(h, p)
    dt = cfg.dt
    if dt > bound:
        if not clamp:
            raise CFLViolation(f"dt={dt} exceeds the diffusion stability bound {bound:.6g}")
        warnings.warn(f"dt clamped from {dt} to CFL bound {bound:.6g}", CFLWarning)
        dt = bound

    def rhs(f, v, w):
        df, dv, dw = _reaction_terms(p, f, v, w)
        return df + p.c * _periodic_laplacian(f, h), dv, dw + p.d * _periodic_laplacian(w, h)

    snapshots = []
    t = field0.time
    y = (field0.f, field0.v, field0.w)
    for target in times:
        if target < t:
            raise ValidationError("snapshot times must not precede the initial time")
        span = target - t
        n_steps = max(1, math.ceil(span / dt)) if span > 0 else 0
        step = span / n_steps if n_steps else 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises StepFailure below
            for _ in range(n_steps):
                y = _rk4_step(rhs, y, step)
        t = target
        if not all(np.isfinite(u).all() for u in y):
            raise StepFailure(f"fields became non-finite by the snapshot at t={t:.17g}")
        snapshots.append(FieldState(field0.domain_length, *(u.copy() for u in y), time=t))
    return snapshots


def linearized_mode_system(p: ModelParams, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The sine and cosine amplitude blocks of the linearized single-mode system,
    returned as a pair; both equal the mode matrix A(mu) (the blocks decouple)."""
    A = mode_matrix(p, mu)
    return A, A.copy()


def write_snapshots_csv(snapshots: Sequence[FieldState], path) -> None:
    """Long-form CSV (t, x, f, v, w) across all snapshots."""
    rows = []
    for snap in snapshots:
        rows += np.column_stack((np.full(snap.grid_points, snap.time), snap.x, snap.f, snap.v, snap.w)).tolist()
    _write_csv(path, ["t", "x", "f", "v", "w"], rows)

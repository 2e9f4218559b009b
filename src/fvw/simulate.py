"""Time integration: the reaction ODE system and the method-of-lines PDE on a 1D
periodic domain, started from uniform or single-mode fields."""

from __future__ import annotations

import math
import numbers
import os
import stat
import sys
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import is_not
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  (kept as fvw.simulate.solve_ivp; the benchmark tracer patches it)

from .errors import CFLWarning, NumericalFailure, ValidationError
from .model import ModelParams, State, _reaction, coexistence_state
from .model import reaction_rhs  # noqa: F401  (kept as fvw.simulate.reaction_rhs; the benchmark tracer patches it)

_MAX_ROWS = 10**7  # most rows a run may hold (ODE rows, PDE grid points or snapshot cells, samples): ~300 B each
_MAX_WORK = 10**10  # most PDE steps x grid points a run may take: 0.2-1 us each, so hours at the cap
_RK4_CHECK_STEPS = 256  # rk4 steps between the march's finiteness checks: ~0.3 ms of stepping
_CSV_BLOCK_ROWS = 4096  # rows `_write_csv` formats in one `%`: a tracemalloc peak of 0.28 MB a column, 1.4 MB for 5
_MIN_RTOL = 100 * sys.float_info.epsilon  # scipy RK45's floor on rtol, kept so that rk45 runs match RK45's
_FLOAT_CELLS = frozenset((float, np.float64))  # cell types `_fmt` formats as %.17g: a block of only these skips `_fmt`


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 ("rk4"), or adaptive Dormand-Prince 5(4) ("rk45") with scipy RK45's step control.
    rtol and atol are read by rk45 only, and dt by rk4 and `simulate_pde` only; no PDE snapshot may follow t_final."""

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
        if self.method == "rk45" and self.rtol < _MIN_RTOL:  # RK45 would warn and raise it to its floor
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
        """CSV (t, f, v, w), formatted _CSV_BLOCK_ROWS rows at a time."""
        _write_csv(path, ["t", "f", "v", "w"], [(self.times, *self.states.T)])


def _fmt(x) -> str:
    """One CSV cell: a str verbatim, a bool as true/false, an int as digits, any other number as %.17g."""
    if type(x) is float:  # the common cell, tested first for speed
        return "%.17g" % x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (str, int, np.integer)):
        return str(x)
    return "%.17g" % x


def _block_lines(columns) -> str:
    """The CSV lines of one block of equal-length columns, formatted by one `%` of a line template repeated
    once per row. A floating ndarray column is formatted as %.17g, as `_fmt` formats a float, and so is every
    column of a block whose cells are all floats; otherwise each cell of the other columns goes through `_fmt`.
    The choice is made per column, never per value, so an int or a bool among floats in a list keeps its own
    form."""
    cells = [c.tolist() if isinstance(c, np.ndarray) and c.dtype.kind == "f" else c for c in columns]
    floating = list(map(is_not, cells, columns))  # the floating ndarrays: the columns that `tolist` copied
    values = tuple(chain.from_iterable(zip(*cells, strict=True)))
    if all(floating) or _FLOAT_CELLS.issuperset(map(type, values)):
        floating = [True] * len(cells)
    else:
        values = tuple(chain.from_iterable(zip(*[c if fl else map(_fmt, c) for c, fl in zip(cells, floating)])))
    line = ",".join(["%.17g" if fl else "%s" for fl in floating]) + "\r\n"
    return line * len(cells[0]) % values


def _write_csv(path, header: Sequence[str], blocks) -> None:
    """The one CSV writer: a header line, then the lines of each of `blocks`, a sequence of equal-length columns
    that `_block_lines` formats _CSV_BLOCK_ROWS rows at a time. A table is one or more blocks; a table held as
    rows is passed as the one block `list(zip(*rows))`. No cell holds a comma, quote or line break, so the
    lines are those of `csv.writer` (excel dialect) over the `_fmt` cells. The file is overwritten in place and
    cut after the header, so a failed write leaves a prefix of the new table: O_TRUNC would free the blocks of
    a file rewritten at about its old size, which on ext4 costs several times the writes of a small table."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if stat.S_ISREG(os.fstat(fd).st_mode):  # a device or a pipe, such as /dev/null, cannot be truncated
            fh.truncate()
        for columns in blocks:
            for i in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
                fh.write(_block_lines([c[i:i + _CSV_BLOCK_ROWS] for c in columns]))


def _rk4_march(p, y0, h, n_steps):
    """n_steps classical RK4 steps of size h of the reaction ODE from the 3-tuple y0 of floats; returns the rows
    (f, v, w), the start included, as one flat array('d'): 24 B a step.

    The rates are read once, and each stage writes the reaction terms out with the operations of
    `model._reaction` in their order: the closure's bits, without its four Python calls a step, a quarter of
    the step's time. A float that overflows becomes inf rather than raising; the march ends at the first check,
    every _RK4_CHECK_STEPS steps, that finds a non-finite state, and `integrate_ode`'s scan of the rows names
    the first one that is not finite. `simulate_pde` has its own march, which does the same arithmetic in place
    on one (4, N) array."""
    alpha, beta, gamma, delta, epsilon, eta, zeta = p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.eta, p.zeta
    a, b = 0.5 * h, h / 6.0
    f, v, w = y0
    rows = array("d", y0)
    extend = rows.extend
    for start in range(0, n_steps, _RK4_CHECK_STEPS):
        for _ in range(min(_RK4_CHECK_STEPS, n_steps - start)):
            k1f = f * (alpha * v - beta * w)
            k1v = v * (zeta * w - eta * f)
            k1w = gamma - delta * v * w - epsilon * w
            sf, sv, sw = f + a * k1f, v + a * k1v, w + a * k1w
            k2f = sf * (alpha * sv - beta * sw)
            k2v = sv * (zeta * sw - eta * sf)
            k2w = gamma - delta * sv * sw - epsilon * sw
            sf, sv, sw = f + a * k2f, v + a * k2v, w + a * k2w
            k3f = sf * (alpha * sv - beta * sw)
            k3v = sv * (zeta * sw - eta * sf)
            k3w = gamma - delta * sv * sw - epsilon * sw
            sf, sv, sw = f + h * k3f, v + h * k3v, w + h * k3w
            k4f = sf * (alpha * sv - beta * sw)
            k4v = sv * (zeta * sw - eta * sf)
            k4w = gamma - delta * sv * sw - epsilon * sw
            f = f + b * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
            v = v + b * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            w = w + b * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            extend((f, v, w))
        # x + b * (...) keeps a non-finite x non-finite, so the last row of a block is finite only if every row
        # before it is: past a blow-up every step would be nan arithmetic.
        if not (math.isfinite(f) and math.isfinite(v) and math.isfinite(w)):
            break
    return rows


def _rms(a, b, c):
    """scipy's RMS norm of a 3-vector, squaring as x * x: x ** 2 of a float raises OverflowError past 1.3e154."""
    return math.sqrt(a * a + b * b + c * c) / 3 ** 0.5


def _dp45(rhs, y0, cfg):
    """Adaptive Dormand-Prince 5(4) steps (J. Comput. Appl. Math. 6, 1980) of y' = rhs(*y) from the 3-tuple y0
    of floats over [0, cfg.t_final]; returns the rows (t, f, v, w), the start included, as one flat array('d'):
    32 B a step, where a list of tuples of floats holds ~150 B.

    Every decision is scipy RK45's: the tableau with FSAL and the 5th-order solution, its first step, the RMS
    error norm over atol + max(|y|, |y_new|) rtol, and the controller of Hairer, Norsett & Wanner (Solving
    ODEs I, II.4: safety 0.9, factors in [0.2, 10], exponent -1/5, no growth after a rejection) with the
    last step clipped to end at t_final. The sums are written out in Python floats where RK45 takes np.dot,
    so results agree with it to rounding, not bit for bit. One decision differs: a nan step size, which RK45
    retries without end, fails at once as a step below the spacing of floats.
    """
    t_final, rtol, atol = cfg.t_final, cfg.rtol, cfg.atol
    max_evals = 6 * _MAX_ROWS  # six evaluations a step, so near the rk4 row cap in stored steps
    sqrt, nextafter, inf = math.sqrt, math.nextafter, math.inf
    f, v, w = y0
    k1f, k1v, k1w = rhs(f, v, w)

    # The first step, as scipy's select_initial_step takes it for an error estimator of order 4.
    sf, sv, sw = atol + abs(f) * rtol, atol + abs(v) * rtol, atol + abs(w) * rtol
    d0 = _rms(f / sf, v / sv, w / sw)
    d1 = _rms(k1f / sf, k1v / sv, k1w / sw)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_final)
    gf, gv, gw = rhs(f + h0 * k1f, v + h0 * k1v, w + h0 * k1w)
    # h0 is 0 or nan only where d1 is inf or nan, which sets h1 to 0 or nan whatever d2 is.
    d2 = _rms((gf - k1f) / sf, (gv - k1v) / sv, (gw - k1w) / sw) / h0 if h0 > 0 else inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d = max(d1, d2)
        h1 = (0.01 / d) ** 0.2 if d else inf  # numpy's 0.01 / 0.0
    h_abs = min(100 * h0, h1, t_final)

    t, evals = 0.0, 2
    rows = array("d", (t, f, v, w))
    extend = rows.extend
    while t < t_final:
        min_step = 10 * (nextafter(t, inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # also a nan step, from a nan first derivative
                raise NumericalFailure("adaptive integration failed: "
                                       "Required step size is less than spacing between numbers.")
            if evals + 6 > max_evals:
                raise ValidationError(f"rk45 needs more than {max_evals} right-hand side evaluations "
                                      f"to reach t_final={t_final:.6g}")
            evals += 6
            t_new = min(t + h_abs, t_final)
            h = h_abs = t_new - t
            k2f, k2v, k2w = rhs(f + 1 / 5 * k1f * h, v + 1 / 5 * k1v * h, w + 1 / 5 * k1w * h)
            k3f, k3v, k3w = rhs(f + (3 / 40 * k1f + 9 / 40 * k2f) * h,
                                v + (3 / 40 * k1v + 9 / 40 * k2v) * h,
                                w + (3 / 40 * k1w + 9 / 40 * k2w) * h)
            k4f, k4v, k4w = rhs(f + (44 / 45 * k1f - 56 / 15 * k2f + 32 / 9 * k3f) * h,
                                v + (44 / 45 * k1v - 56 / 15 * k2v + 32 / 9 * k3v) * h,
                                w + (44 / 45 * k1w - 56 / 15 * k2w + 32 / 9 * k3w) * h)
            k5f, k5v, k5w = rhs(
                f + (19372 / 6561 * k1f - 25360 / 2187 * k2f + 64448 / 6561 * k3f - 212 / 729 * k4f) * h,
                v + (19372 / 6561 * k1v - 25360 / 2187 * k2v + 64448 / 6561 * k3v - 212 / 729 * k4v) * h,
                w + (19372 / 6561 * k1w - 25360 / 2187 * k2w + 64448 / 6561 * k3w - 212 / 729 * k4w) * h)
            k6f, k6v, k6w = rhs(
                f + (9017 / 3168 * k1f - 355 / 33 * k2f + 46732 / 5247 * k3f + 49 / 176 * k4f - 5103 / 18656 * k5f) * h,
                v + (9017 / 3168 * k1v - 355 / 33 * k2v + 46732 / 5247 * k3v + 49 / 176 * k4v - 5103 / 18656 * k5v) * h,
                w + (9017 / 3168 * k1w - 355 / 33 * k2w + 46732 / 5247 * k3w + 49 / 176 * k4w - 5103 / 18656 * k5w) * h)
            nf = f + h * (35 / 384 * k1f + 500 / 1113 * k3f + 125 / 192 * k4f - 2187 / 6784 * k5f + 11 / 84 * k6f)
            nv = v + h * (35 / 384 * k1v + 500 / 1113 * k3v + 125 / 192 * k4v - 2187 / 6784 * k5v + 11 / 84 * k6v)
            nw = w + h * (35 / 384 * k1w + 500 / 1113 * k3w + 125 / 192 * k4w - 2187 / 6784 * k5w + 11 / 84 * k6w)
            k7f, k7v, k7w = rhs(nf, nv, nw)
            # The 5th-order solution minus the embedded 4th-order one, over the scale of each component.
            ef = ((-71 / 57600 * k1f + 71 / 16695 * k3f - 71 / 1920 * k4f + 17253 / 339200 * k5f - 22 / 525 * k6f
                   + 1 / 40 * k7f) * h / (atol + max(abs(f), abs(nf)) * rtol))
            ev = ((-71 / 57600 * k1v + 71 / 16695 * k3v - 71 / 1920 * k4v + 17253 / 339200 * k5v - 22 / 525 * k6v
                   + 1 / 40 * k7v) * h / (atol + max(abs(v), abs(nv)) * rtol))
            ew = ((-71 / 57600 * k1w + 71 / 16695 * k3w - 71 / 1920 * k4w + 17253 / 339200 * k5w - 22 / 525 * k6w
                   + 1 / 40 * k7w) * h / (atol + max(abs(w), abs(nw)) * rtol))
            error = sqrt(ef * ef + ev * ev + ew * ew) / 3 ** 0.5
            if error < 1.0:
                factor = min(10.0, 0.9 * error ** -0.2) if error else 10.0
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)  # a nan error shrinks the step by 0.2, as in RK45
            rejected = True
        t, f, v, w, k1f, k1v, k1w = t_new, nf, nv, nw, k7f, k7v, k7w
        extend((t, f, v, w))
    return rows


def integrate_ode(s0: State, p: ModelParams, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the reaction ODE system from s0 up to cfg.t_final; a non-finite state raises NumericalFailure."""
    if not all(map(math.isfinite, s0)):
        raise ValidationError(f"initial state must be finite, got {tuple(s0)}")
    y0 = tuple(map(float, s0))
    if cfg.method == "rk4":
        if cfg.t_final / cfg.dt > _MAX_ROWS - 1:
            raise ValidationError(f"t_final / dt must be at most {_MAX_ROWS - 1} steps, got {cfg.t_final / cfg.dt:.6g}")
        n_steps = max(1, math.ceil(cfg.t_final / cfg.dt))
        h = cfg.t_final / n_steps
        states = np.frombuffer(_rk4_march(p, y0, h, n_steps)).reshape(-1, 3)
        # np.linspace(0, t_final, n_steps + 1)'s bits, built only for the rows the march returned: a march that
        # ends at a blow-up returns fewer, and only a complete run reaches the endpoint that linspace sets.
        times = np.arange(len(states)) * h
        if len(times) == n_steps + 1:
            times[-1] = cfg.t_final
    else:
        rows = np.frombuffer(_dp45(_reaction(p), y0, cfg)).reshape(-1, 4)
        times, states = rows[:, 0], rows[:, 1:]
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise NumericalFailure(f"state became non-finite at t={times[finite.argmin()]:.17g}")
    return Trajectory(times, states, negativity_flag=bool(states.min() < 0.0))


@dataclass(frozen=True)
class FieldState:
    """Discretized (f, v, w) on a periodic grid of N points over [0, L)."""

    domain_length: float
    f: np.ndarray
    v: np.ndarray
    w: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        dims = tuple(map(np.ndim, (self.f, self.v, self.w)))
        if dims != (1, 1, 1):
            raise ValidationError(f"f, v, w must be one-dimensional, got dimensions {dims}")
        dtypes = tuple(np.asarray(u).dtype for u in (self.f, self.v, self.w))
        if any(t.kind not in "biuf" for t in dtypes):
            raise ValidationError(f"f, v, w must hold real numbers, got dtypes {tuple(map(str, dtypes))}")
        n = len(self.f)
        if n < 8:
            raise ValidationError("grid must have at least 8 points")
        if len(self.v) != n or len(self.w) != n:
            raise ValidationError("f, v, w must have equal length")
        if not (math.isfinite(self.domain_length) and self.domain_length > 0):
            raise ValidationError(f"domain_length must be a positive finite real, got {self.domain_length}")
        if not math.isfinite(self.time):
            raise ValidationError(f"time must be finite, got {self.time}")

    @property
    def grid_points(self) -> int:
        return len(self.f)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.grid_points) * (self.domain_length / self.grid_points)


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
    if not (isinstance(mode, numbers.Integral) and 1 <= mode <= n // 2 - 1):  # only then sin(k(x + L)) = sin(kx)
        raise ValidationError(f"mode must be an integer in [1, N/2-1], got {mode!r}")
    if not len(sin_amplitudes) == len(cos_amplitudes) == 3:
        raise ValidationError(f"sin_amplitudes and cos_amplitudes must hold 3 values each, got {len(sin_amplitudes)} "
                              f"and {len(cos_amplitudes)}")
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
) -> list[FieldState]:
    """March the reaction-diffusion system with explicit RK4 steps and
    second-order periodic central differences; returns snapshots at the
    requested times in increasing order (the initial field is not included unless requested).

    Every snapshot time must lie in [field0.time, cfg.t_final], or ValidationError is raised before any
    work. A dt above the diffusion CFL bound is always clamped to it, with a CFLWarning; a caller that must
    refuse such a dt turns the warning into an error (warnings.simplefilter("error", CFLWarning)), which
    raises before any step. More than _MAX_ROWS snapshot cells (snapshot times x grid points), more than
    _MAX_WORK steps of the clamped dt times grid points, or an h^2 outside the normal floats, raise
    ValidationError. The fields are checked every 16 steps and at each snapshot; the first check that finds
    a non-finite value raises NumericalFailure naming its time.
    """
    if cfg.method != "rk4":
        raise ValidationError("simulate_pde uses fixed-step explicit integration (method 'rk4')")
    times = sorted(float(t) for t in snapshot_times)
    bad = [t for t in times if not field0.time <= t <= cfg.t_final]  # both ends are finite, so nan and inf are out
    if bad:
        raise ValidationError(f"snapshot time {bad[0]} is not finite or precedes the initial time {field0.time} "
                              f"or follows t_final {cfg.t_final}")
    if len(times) * field0.grid_points > _MAX_ROWS:  # each snapshot holds grid_points cells
        raise ValidationError(f"snapshots x grid_points must be at most {_MAX_ROWS}, "
                              f"got {len(times)} x {field0.grid_points}")

    h = field0.domain_length / field0.grid_points
    bound = cfl_bound(h, p)
    if bound == 0.0 or not sys.float_info.min <= h * h < math.inf:
        raise ValidationError(f"domain_length / grid_points = {h:.6g} puts h^2 or the CFL bound outside the normal floats")
    dt = min(cfg.dt, bound)
    if times and (times[-1] - field0.time) / dt * field0.grid_points > _MAX_WORK:
        raise ValidationError(f"the snapshot times need more than {_MAX_WORK:.0e} steps x grid points at dt={dt:.6g}")
    if dt < cfg.dt:
        warnings.warn(f"dt clamped from {cfg.dt} to CFL bound {bound:.6g}", CFLWarning)

    # The march writes every stage into preallocated buffers, since at N = 256 a step costs mostly numpy's
    # per-call overhead. The fields are the rows (w, f, v, w) of one (4, N) array whose last row repeats the
    # first, so each cyclic pair (w, f), (f, v) and (v, w) is a contiguous slice: numpy runs a contiguous
    # (2, N) operand ~1 us faster than a strided one. The fire and vegetation rows share the form x (a y - b z),
    # with (x, y, z) = (f, v, w) and (v, w, f), so one call per operation forms both, and the diffusion of
    # (w, f) is one stacked pass. Each coefficient is a full-width array or a 0-d array of the march's dtype,
    # which numpy multiplies faster than a broadcast column or a Python float. Every element still sees the
    # operations of `model._reaction` and `_rk4_march` in their order, so the bits are the reference march's.
    ftype = np.result_type(1.0, field0.f, field0.v, field0.w)
    n = field0.grid_points
    gain, loss, coeffs = (np.repeat(np.array([[x], [z]], ftype), n, axis=1)
                          for x, z in ((p.alpha, p.zeta), (p.beta, p.eta), (p.d, p.c)))
    gamma, delta, epsilon, hh, two = (np.asarray(x, ftype) for x in (p.gamma, p.delta, p.epsilon, h * h, 2.0))
    pad, lap, tmp = np.empty((2, n + 2), ftype), np.empty((2, n), ftype), np.empty((2, n), ftype)
    left, right, tmp_w = pad[:, :-2], pad[:, 2:], tmp[0]
    add, sub, mul, div, concatenate = np.add, np.subtract, np.multiply, np.divide, np.concatenate

    def kernel(u, k):
        """A call that writes into the rows (w', f', v') of k the right-hand side at the rows (w, f, v, w) of u:
        the reaction rows, then [[d], [c]] times the periodic Laplacian of (w, f) from one (2, N + 2) ghost
        buffer. The row views are taken here, once a run."""
        wf, fv, vw, v, w, k_w, k_wf, k_fv = u[:2], u[1:3], u[2:], u[2], u[0], k[0], k[:2], k[1:]
        ghosted = (wf[:, -1:], wf, wf[:, :1])

        def rhs():
            mul(gain, vw, k_fv)  # (alpha v, zeta w)
            mul(loss, wf, tmp)  # (beta w, eta f)
            sub(k_fv, tmp, k_fv)
            mul(k_fv, fv, k_fv)
            mul(delta, v, k_w)  # gamma - delta v w - epsilon w
            mul(k_w, w, k_w)
            sub(gamma, k_w, k_w)
            sub(k_w, mul(epsilon, w, tmp_w), k_w)
            concatenate(ghosted, 1, pad)
            add(left, right, lap)
            sub(lap, mul(two, wf, tmp), lap)
            div(lap, hh, lap)
            mul(coeffs, lap, lap)
            add(k_wf, lap, k_wf)

        return rhs

    snapshots = []
    t = field0.time
    y = np.array((field0.w, field0.f, field0.v, field0.w), ftype)
    stage = np.empty_like(y)
    y3, y_w, y_copy, stage3, stage_w, stage_copy = y[:3], y[0], y[3], stage[:3], stage[0], stage[3]
    k1, k = np.empty_like(y3), np.empty_like(y3)
    rhs_y, rhs_stage = kernel(y, k1), kernel(stage, k)
    for target in times:
        span = target - t
        n_steps = max(1, math.ceil(span / dt)) if span > 0 else 0
        step = span / n_steps if n_steps else 0.0
        a, b, h_step = (np.asarray(x, ftype) for x in (0.5 * step, step / 6.0, step))
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises NumericalFailure below
            for i in range(1, n_steps + 1):
                # One RK4 step: k1 accumulates k1 + 2 k2 + 2 k3 + k4 while k holds each later stage. Each write
                # of (w, f, v) is followed by the copy of w into the last row.
                rhs_y()  # k1
                add(y3, mul(a, k1, stage3), stage3)
                stage_copy[...] = stage_w
                rhs_stage()  # k2
                add(y3, mul(a, k, stage3), stage3)
                stage_copy[...] = stage_w
                add(k1, mul(two, k, k), k1)
                rhs_stage()  # k3
                add(y3, mul(h_step, k, stage3), stage3)
                stage_copy[...] = stage_w
                add(k1, mul(two, k, k), k1)
                rhs_stage()  # k4
                add(k1, k, k1)
                add(y3, mul(b, k1, k1), y3)
                y_copy[...] = y_w
                # A scan of the fields costs ~4 % of an N = 256 step; every 16th step it is noise.
                if (i % 16 == 0 or i == n_steps) and not np.isfinite(y3).all():
                    raise NumericalFailure(f"fields became non-finite at t={t + i * step:.17g}")
        t = target
        w, f, v = y3.copy()
        snapshots.append(FieldState(field0.domain_length, f, v, w, time=t))
    return snapshots


def write_snapshots_csv(snapshots: Sequence[FieldState], path) -> None:
    """Long-form CSV (t, x, f, v, w) across all snapshots, _CSV_BLOCK_ROWS grid points at a time: the t and x
    columns are built one block at a time, so the write holds no column of a whole snapshot."""

    def blocks():
        for s in snapshots:
            n, spacing = s.grid_points, s.domain_length / s.grid_points
            for i in range(0, n, _CSV_BLOCK_ROWS):
                j = min(i + _CSV_BLOCK_ROWS, n)
                yield np.full(j - i, s.time, float), np.arange(i, j) * spacing, s.f[i:j], s.v[i:j], s.w[i:j]

    _write_csv(path, ["t", "x", "f", "v", "w"], blocks())

"""The four benchmark workloads: seeded inputs, the op each input drives, and
the oracle that checks each op's output.

Ops call fvw only through module attributes (`fvw.stability.upsilon`, ...),
so the tracer's patches see every call. Oracles use independent formulas
(the benchmark's own reaction Jacobian, `np.roots`, mpmath, `scipy.linalg.expm`,
a tight DOP853 run, closed-form moments) and run outside the timed op.

A check returns None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.special
from scipy.integrate import solve_ivp

RATES = ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta")
# The paper's regime: reaction rates log-uniform over four decades, as in the
# acceptance suite's random draws.
RATE_LOW, RATE_HIGH = 1e-2, 1e2
UNIT = dict.fromkeys(RATES, 1.0)  # Upsilon = epsilon = 1 > 0: stable coexistence
UNSTABLE = {**UNIT, "alpha": 2.0, "epsilon": 0.1}  # Upsilon ~ -0.559 < 0
L_CLI = 2.0 * math.pi  # CLI default domain length


# -- independent formulas used by generators and oracles ------------------

def coexistence(r: dict) -> np.ndarray:
    disc = math.sqrt(r["alpha"] ** 2 * r["epsilon"] ** 2 + 4 * r["alpha"] * r["beta"] * r["delta"] * r["gamma"])
    w = 2 * r["alpha"] * r["gamma"] / (disc + r["alpha"] * r["epsilon"])
    return np.array([r["zeta"] * w / r["eta"], r["beta"] * w / r["alpha"], w])


def upsilon(r: dict) -> float:
    _, _, w = coexistence(r)
    return r["beta"] * w * (r["delta"] - r["alpha"]) / r["alpha"] + r["epsilon"]


def mode_matrix(r: dict, mu: float) -> np.ndarray:
    """Reaction Jacobian at the coexistence state minus diag(c mu, 0, d mu)."""
    f, v, w = coexistence(r)
    return np.array([
        [r["alpha"] * v - r["beta"] * w - r.get("c", 0.0) * mu, r["alpha"] * f, -r["beta"] * f],
        [-r["eta"] * v, r["zeta"] * w - r["eta"] * f, r["zeta"] * v],
        [0.0, -r["delta"] * w, -r["delta"] * v - r["epsilon"] - r.get("d", 0.0) * mu],
    ])


def char_poly(A: np.ndarray) -> tuple[float, float, float]:
    """(a2, a1, a0) of det(t I - A) for a 3x3 matrix, from trace, minors and determinant."""
    minors = (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
              + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
    return -float(np.trace(A)), float(minors), -float(np.linalg.det(A))


def hurwitz_gap(a2, a1, a0) -> tuple[float, float]:
    """The gap a1 a2 - a0 and the scale it is compared against."""
    return a1 * a2 - a0, 1.0 + abs(a1 * a2) + abs(a0)


def max_real_root(a2, a1, a0) -> float:
    """Largest real part of the cubic's roots: np.roots, or mpmath near marginality."""
    gap, scale = hurwitz_gap(a2, a1, a0)
    if abs(gap) > 1e-6 * scale:
        return float(np.max(np.roots([1.0, a2, a1, a0]).real))
    import mpmath

    with mpmath.workdps(50):
        return float(max(mpmath.re(z) for z in mpmath.polyroots([1, a2, a1, a0], maxsteps=200, extraprec=200)))


def reaction(r: dict):
    def rhs(t, y):
        f, v, w = y
        return [f * (r["alpha"] * v - r["beta"] * w), v * (r["zeta"] * w - r["eta"] * f),
                r["gamma"] - r["delta"] * v * w - r["epsilon"] * w]

    return rhs


def log_uniform(rng, low, high, size=None):
    return np.exp(rng.uniform(math.log(low), math.log(high), size=size))


def draw_rates(rng) -> dict:
    return dict(zip(RATES, (float(x) for x in log_uniform(rng, RATE_LOW, RATE_HIGH, 7))))


def block_schedule(rng, n: int, kinds: list) -> list:
    """n kinds cycling through shuffled copies of `kinds`, so every block of
    len(kinds) ops has the same mix and the share of each kind is fixed."""
    out = []
    while len(out) < n:
        block = list(kinds)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=complex))))


# -- workloads ------------------------------------------------------------

class Workload:
    name = ""
    pool = 0  # number of distinct inputs generated; ops cycle through them
    tail_percentile = 99.0

    def __init__(self, fvw, seed: int, tmp_dir: str):
        self.fvw = fvw
        self.tmp_dir = tmp_dir
        rng = np.random.default_rng(seed)
        self.inputs = self.generate(rng)

    def generate(self, rng) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out, index: int, rerun) -> str | None:
        raise NotImplementedError

    def digest(self, op, out) -> bytes:
        """Bytes identifying an op's output; recorded as information only."""
        return repr(out).encode()

    def typical(self, op) -> bool:
        """Whether an op is of the workload's main kind (the warm-up op is one)."""
        return True

    def warmup_op(self):
        return next(op for op in self.inputs if self.typical(op))

    def probes(self) -> list:
        """Ops run exactly once per run, untimed, after the measured loop: the
        known-defect reproducers. They are reported as `known_defects`, apart
        from the timed ops, so that every timed op passes at this commit."""
        return []


@dataclass
class AnalysisOp:
    kind: str  # "analysis" or "kernel"
    rates: dict = field(default_factory=dict)
    mu_c: float = 0.0
    varsigma: float = 0.0
    kernel: str = ""
    scale: float = 1.0
    dimension: int = 1
    j_max: int = 0


class AnalysisSweep(Workload):
    """Whole linear-stability analyses of random parameter sets; `cubic` and
    `stability` do the work, `simulate` none."""

    name = "analysis-sweep"
    pool = 16384
    # p99 of this workload spread by 0.15-0.28 (IQR/median) between 25 s runs on
    # a shared host, above the bound; p90 by 0.02-0.04.
    tail_percentile = 90.0
    GRID = 201  # dispersion samples per analysis
    KERNEL_SHARE = 20  # one op in 20 is a kernel_moments call

    def generate(self, rng):
        kinds = block_schedule(rng, self.pool, ["kernel"] + ["analysis"] * (self.KERNEL_SHARE - 1))
        ops = []
        for kind in kinds:
            if kind == "kernel":
                ops.append(AnalysisOp(
                    "kernel", kernel=str(rng.choice(["gaussian", "exponential"])),
                    scale=float(rng.uniform(0.5, 2.0)), dimension=int(rng.integers(1, 4)),
                    j_max=int(rng.integers(0, 4))))
            else:
                r = draw_rates(rng)
                r["c"], r["d"] = (float(x) for x in log_uniform(rng, RATE_LOW, RATE_HIGH, 2))
                ops.append(AnalysisOp(
                    "analysis", rates=r, mu_c=float(log_uniform(rng, 1e-4, 1e-1)),
                    varsigma=float(r["epsilon"] * rng.uniform(0.1, 0.9))))
        return ops

    def typical(self, op):
        return op.kind == "analysis"

    def run(self, op):
        fvw = self.fvw
        if op.kind == "kernel":
            return fvw.kernels.kernel_moments(self._kernel(op), op.dimension, op.j_max)
        st = fvw.stability
        p = fvw.model.ModelParams(**op.rates)
        ups = st.upsilon(p)
        e0 = st.classify_equilibrium("E0", p)
        e1 = st.classify_equilibrium("E1", p)
        k0 = st.find_k0(p)
        wt = st.find_wavetrain(p) if ups < 0 else None
        mu_max = 2.0 * k0.mu_threshold if k0.mu_threshold > 0 else 2.0
        curve = st.dispersion_curve(p, np.linspace(0.0, mu_max, self.GRID))
        comp = st.competition_instability(p, op.mu_c, op.varsigma)
        return ups, e0, e1, k0, wt, curve, comp

    def check(self, op, out, index, rerun):
        if op.kind == "kernel":
            return self._check_kernel(op, out)
        ups, e0, e1, k0, wt, curve, comp = out
        r = op.rates
        want = upsilon(r)
        if not math.isclose(ups, want, rel_tol=1e-9, abs_tol=1e-12 * (abs(want - r["epsilon"]) + r["epsilon"])):
            return f"upsilon {ups!r} != {want!r}"
        if e0.classification.value != "unstable":
            return "E0 not unstable"
        # E1: Routh-Hurwitz verdict against the roots of the benchmark's own characteristic polynomial.
        a = char_poly(mode_matrix(r, 0.0))
        gap, scale = hurwitz_gap(*a)
        if abs(gap) > 1e-9 * scale:
            expect = "stable" if max_real_root(*a) < 0 else "unstable"
            if e1.classification.value != expect:
                return f"E1 verdict {e1.classification.value} but roots say {expect}"
            if (ups > 0) != (expect == "stable"):
                return f"sign(Upsilon)={ups:+.3e} disagrees with roots ({expect})"
        if not all_finite(e1.eigenvalues.roots):
            return "non-finite E1 eigenvalues"
        # Diffusion threshold: Phi(mu) = a1 a2 - a0 of A(mu) vanishes at mu_threshold.
        if ups < 0:
            mu = k0.mu_threshold
            if not mu > 0:
                return f"mu_threshold {mu!r} not positive while Upsilon < 0"
            phi, scale = hurwitz_gap(*char_poly(mode_matrix(r, mu)))
            if abs(phi) > 1e-9 * scale:
                return f"|Phi(mu_threshold)| = {abs(phi):.3e} > 1e-9 * {scale:.3e}"
            # Wave train: A(mu*) X* = i sigma* X*.
            A = mode_matrix(r, wt.mu_star)
            resid = np.linalg.norm(A @ wt.eigvec - 1j * wt.sigma_star * wt.eigvec)
            if not resid <= 1e-8 * np.linalg.norm(A):
                return f"||A X* - i sigma* X*|| = {resid:.3e}"
            phi, scale = hurwitz_gap(*char_poly(A))
            if abs(phi) > 1e-9 * scale:
                return f"|Phi(mu*)| = {abs(phi):.3e}"
        elif k0.mu_threshold != 0.0:
            return f"mu_threshold {k0.mu_threshold!r} while Upsilon >= 0"
        # Dispersion: every sample finite, three sampled verdicts against roots.
        if len(curve) != self.GRID:
            return "wrong dispersion length"
        if not all_finite([x for s in curve for x in (s.a2, s.a1, s.a0, s.phi, *s.eigenvalues.roots)]):
            return "non-finite dispersion sample"
        for j in (index % self.GRID, (7 * index + 3) % self.GRID, self.GRID - 1):
            s = curve[j]
            a = char_poly(mode_matrix(r, s.mu))
            gap, scale = hurwitz_gap(*a)
            if abs(gap) > 1e-9 * scale and s.stable != (max_real_root(*a) < 0):
                return f"dispersion verdict wrong at mu={s.mu!r}"
        # Competition spectrum against a dense eigensolver.
        L = mode_matrix(r, op.mu_c)
        L[1, 1] += op.varsigma
        lam = np.linalg.eigvals(L)
        tol = 1e-6 * (1.0 + np.linalg.norm(L))
        got = comp.eigenvalues.max_real_part()
        if not abs(got - lam.real.max()) <= tol:
            return f"competition max Re {got!r} vs eigvals {lam.real.max()!r}"
        if abs(lam.real.max()) > tol and comp.unstable != (lam.real.max() > 0):
            return "competition instability flag wrong"
        return None

    @staticmethod
    def _kernel(op):
        scale = op.scale
        if op.kernel == "gaussian":
            return lambda r: math.exp(-((r / scale) ** 2))
        return lambda r: math.exp(-r / scale)

    def _check_kernel(self, op, out):
        """Moments against the closed form of the integral over [0, r_max], where
        fvw truncates at r_max = truncation_radius(K0); the cut-off tail itself
        (up to ~1e-8 relative for j = 3) is part of fvw's documented method."""
        n, s = op.dimension, op.scale
        r_max = self.fvw.kernels.truncation_radius(self._kernel(op))
        area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        denom = 1.0
        for j, got in enumerate(out.moments):
            if j > 0:
                denom *= 2.0 * j * (n + 2 * j - 2)
            m = n - 1 + 2 * j  # integral of rho^m K0(rho) over [0, r_max] via the incomplete gamma function
            if op.kernel == "gaussian":
                a = (m + 1) / 2.0
                integral = 0.5 * s ** (m + 1) * math.gamma(a) * scipy.special.gammainc(a, (r_max / s) ** 2)
            else:
                integral = s ** (m + 1) * math.factorial(m) * scipy.special.gammainc(m + 1, r_max / s)
            want = area / denom * integral
            if not math.isclose(got, want, rel_tol=1e-9):  # quad runs at epsrel 1e-10
                return f"ell_{j} = {got!r}, closed form {want!r}"
        return None

    def digest(self, op, out):
        if not isinstance(out, tuple):
            return repr(out.moments).encode()
        ups, e0, e1, k0, wt, curve, comp = out
        parts = [ups, e1.classification.value, k0.mu_threshold, comp.continuation_root,
                 *(s.phi for s in curve), *(wt.eigvec.tolist() if wt else [])]
        return repr(parts).encode()


@dataclass
class OdeOp:
    rates: dict
    start: tuple
    method: str


class OdeEnsemble(Workload):
    """Single ODE trajectories from starts in a box around E1, for a stable
    and an unstable parameter set; per-call overhead on 3-vectors dominates."""

    name = "ode-ensemble"
    pool = 2048
    tail_percentile = 90.0
    T_FINAL, DT = 50.0, 0.01
    BOX = 0.1  # half-width of the start box around E1, as in acceptance criterion 8
    RK45_SHARE = 4  # one op in 4 uses the adaptive integrator
    REF_EVERY = 4  # ops checked against a tight DOP853 run
    # Final-state tolerances relative to max(1, |y|), from the integrators' error
    # orders: 1e3 * dt^4 for RK4 and 1e4 * rtol for RK45 (rtol = 1e-8), the
    # factors allowing for growth along the unstable spiral over t = 50.
    TOL = {"rk4": 1e-5, "rk45": 1e-4}

    def generate(self, rng):
        kinds = block_schedule(rng, self.pool, [(rates, method) for rates in (UNIT, UNSTABLE)
                                               for method in ["rk45"] + ["rk4"] * (self.RK45_SHARE - 1)])
        ops = []
        for rates, method in kinds:
            start = coexistence(rates) + rng.uniform(-self.BOX, self.BOX, 3)
            ops.append(OdeOp(rates, tuple(float(x) for x in start), method))
        return ops

    def typical(self, op):
        return op.method == "rk4"

    def run(self, op):
        fvw = self.fvw
        cfg = fvw.simulate.IntegratorConfig(method=op.method, t_final=self.T_FINAL, dt=self.DT)
        return fvw.simulate.integrate_ode(fvw.model.State(*op.start), fvw.model.ModelParams(**op.rates), cfg)

    def check(self, op, out, index, rerun):
        if not all_finite(out.states):
            return "non-finite state"
        if out.times[-1] != self.T_FINAL:
            return f"trajectory ends at t={out.times[-1]!r}"
        eq = coexistence(op.rates)
        d = np.linalg.norm(out.states - eq, axis=1)
        contracted = d[-1] < d[out.times > 10.0][0]
        if contracted != (upsilon(op.rates) > 0):
            return f"spiral {'in' if contracted else 'out'}ward but Upsilon={upsilon(op.rates):+.3f}"
        if index % self.REF_EVERY == 0:
            ref = solve_ivp(reaction(op.rates), (0.0, self.T_FINAL), op.start,
                            method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
            err = np.max(np.abs(out.states[-1] - ref)) / max(1.0, np.max(np.abs(ref)))
            if not err <= self.TOL[op.method]:
                return f"final state off the DOP853 reference by {err:.3e}"
        return None

    def digest(self, op, out):
        return out.states[-1].tobytes()


@dataclass
class PdeOp:
    rates: dict
    n: int
    mode: int
    rho: float
    sin_amp: tuple
    cos_amp: tuple
    times: tuple


class PdePattern(Workload):
    """Explicit FD/RK4 PDE runs of a single-mode field in the CLI geometry,
    mostly at N = 256 and one op in five at N = 1024."""

    name = "pde-pattern"
    pool = 1024
    tail_percentile = 90.0
    DT = 1e-3  # requested; clamped to the CFL bound h^2 / 2 at both sizes
    # Simulated time per op, so an op takes about 200 (N = 256) or 320 (N = 1024) steps.
    T_RANGE = {256: (0.05, 0.07), 1024: (0.005, 0.007)}

    def generate(self, rng):
        ops = []
        for rates, n in block_schedule(rng, self.pool, [(UNIT, 256), (UNSTABLE, 256)] * 4
                                       + [(UNIT, 1024), (UNSTABLE, 1024)]):
            t_final = float(rng.uniform(*self.T_RANGE[n]))
            times = tuple(sorted(float(t) for t in rng.uniform(0.0, t_final, 2))) + (t_final,)
            ops.append(PdeOp(
                {**rates, "c": 1.0, "d": 1.0}, n, int(rng.integers(1, 5)),
                float(log_uniform(rng, 1e-5, 1e-3)),
                tuple(float(x) for x in rng.normal(size=3)), tuple(float(x) for x in rng.normal(size=3)),
                times))
        return ops

    def typical(self, op):
        return op.n == 256

    def run(self, op):
        fvw = self.fvw
        p = fvw.model.ModelParams(**op.rates)
        field0 = fvw.simulate.single_mode_field(p, op.n, L_CLI, op.mode, op.rho, op.sin_amp, op.cos_amp)
        cfg = fvw.simulate.IntegratorConfig(method="rk4", t_final=op.times[-1], dt=self.DT)
        return fvw.simulate.simulate_pde(field0, p, cfg, op.times)

    def check(self, op, out, index, rerun):
        """Mode amplitudes against the linearisation e^{A(mu_h) t} theta0, where
        mu_h = (4/h^2) sin^2(kh/2) is the exact eigenvalue of the discrete
        Laplacian. Nonlinear terms enter at relative order rho, so the
        tolerance is rho times the predicted amplitude."""
        if len(out) != len(op.times):
            return "wrong number of snapshots"
        h = L_CLI / op.n
        k = 2.0 * math.pi * op.mode / L_CLI
        x = np.arange(op.n) * h
        s_wave, c_wave = np.sin(k * x), np.cos(k * x)
        A = mode_matrix(op.rates, (4.0 / h ** 2) * math.sin(k * h / 2.0) ** 2)
        eq = coexistence(op.rates)
        theta0 = op.rho * np.array([op.sin_amp, op.cos_amp]).T  # columns: sine, cosine
        for snap, t in zip(out, op.times):
            dev = np.array([snap.f, snap.v, snap.w]) - eq[:, None]
            if not all_finite(dev):
                return f"non-finite field at t={t!r}"
            if snap.time != t:
                return f"snapshot time {snap.time!r} != {t!r}"
            got = 2.0 / op.n * np.column_stack([dev @ s_wave, dev @ c_wave])
            want = scipy.linalg.expm(A * t) @ theta0
            err = np.linalg.norm(got - want)
            if not err <= op.rho * np.linalg.norm(want):
                return f"mode amplitude off the linearisation by {err:.3e} at t={t!r}"
        return None

    def digest(self, op, out):
        return b"".join(np.stack([s.f, s.v, s.w]).tobytes() for s in out)


@dataclass
class CliOp:
    argv: list
    expect: tuple  # accepted exit codes
    output: str | None  # CSV written on success
    known_defect: str = ""  # non-empty for an invocation that fails at this commit


class CliBatch(Workload):
    """In-process `fvw.cli.main(argv)` calls cycling through all nine
    subcommands with small sizes, plus a fixed share of invalid or degenerate
    invocations whose contract is exit 2 or 3."""

    name = "cli-batch"
    pool = 4096
    tail_percentile = 99.0
    RERUN_EVERY = 8  # ops rerun outside the timing to check byte-identical CSVs
    COMMANDS = ("equilibria", "stability", "dispersion", "wavetrain", "competition",
                "simulate-ode", "simulate-pde", "kernel-moments", "sweep")
    # Invalid or degenerate invocations and the exit code their contract demands.
    ERROR_CASES = (
        (["stability", "--alpha", "-1"], (2,)),  # negative rate
        (["dispersion", "--samples", "1"], (2,)),
        (["kernel-moments", "--kernel", "box"], (2,)),
        (["competition", "--varsigma", "2"], (2,)),  # varsigma >= epsilon
        (["simulate-ode", "--method", "euler"], (2,)),
        (["sweep", "--axis", "omega"], (2,)),
        (["equilibria", "--bogus", "1"], (2,)),  # argparse rejects the flag
        (["wavetrain"], (3,)),  # unit rates: Upsilon = 1 >= 0, no wave train
        (["wavetrain", "--alpha", "2", "--epsilon", "0.1"], (3,)),  # no diffusion
        (["kernel-moments", "--kernel", "exponential", "--scale", "1e7"], (3,)),  # slow decay
    )
    # Invocations that break the exit-code contract at this commit (an uncaught
    # exception instead of exit 2/3). Each run attempts each once, as a probe,
    # and reports how many still fail as `known_defects`.
    KNOWN_DEFECTS = (
        (["wavetrain", "--alpha", "2", "--epsilon", "0.1", "--c", "1e-300"],
         "RuntimeError: failed to bracket the root of Phi"),
        (["stability", "--alpha", "1e200"], "OverflowError in coexistence_w"),
    )

    def generate(self, rng):
        errors = [("error", i) for i in range(len(self.ERROR_CASES))]
        # One block: each subcommand six times and every error case once.
        block = [("ok", c) for c in self.COMMANDS] * 6 + errors
        ops = []
        for kind, what in block_schedule(rng, self.pool, block):
            if kind == "ok":
                ops.append(self._valid(rng, what))
            else:
                argv, codes = self.ERROR_CASES[what]
                ops.append(CliOp(argv + self._out(argv[0]), codes, None))
        return ops

    def probes(self):
        return [CliOp(argv + self._out(argv[0]), (2, 3), None, known_defect=why)
                for argv, why in self.KNOWN_DEFECTS]

    def _out(self, command):
        return ["--output", os.path.join(self.tmp_dir, f"{command}.csv")]

    def _valid(self, rng, command):
        r = draw_rates(rng)
        extra: list[str] = []
        if command in ("dispersion", "wavetrain", "competition", "sweep"):
            r["c"], r["d"] = (float(x) for x in log_uniform(rng, RATE_LOW, RATE_HIGH, 2))
        if command == "wavetrain":
            while upsilon(r) >= 0:  # a wave train needs Upsilon < 0
                r.update(draw_rates(rng))
        if command == "dispersion":
            extra = ["--mu-max", fmt(log_uniform(rng, 0.1, 10.0)), "--samples", str(rng.integers(21, 202))]
        elif command == "competition":
            extra = ["--mu", fmt(log_uniform(rng, 1e-4, 1e-1)), "--varsigma", fmt(r["epsilon"] * rng.uniform(0.1, 0.9))]
        elif command == "simulate-ode":
            r = dict((UNIT, UNSTABLE)[rng.integers(2)])
            y0 = coexistence(r) + rng.uniform(-0.1, 0.1, 3)
            extra = ["--f0", fmt(y0[0]), "--v0", fmt(y0[1]), "--w0", fmt(y0[2]),
                     "--t-final", fmt(rng.uniform(5.0, 20.0))]
            if rng.random() < 0.25:
                extra += ["--method", "rk45"]
        elif command == "simulate-pde":
            r = {**(UNIT, UNSTABLE)[rng.integers(2)], "c": 1.0, "d": 1.0}
            extra = ["--grid-points", str(rng.choice([32, 64])), "--mode", str(rng.integers(1, 4)),
                     "--rho", fmt(log_uniform(rng, 1e-5, 1e-3)), "--t-final", fmt(rng.uniform(0.05, 0.2)),
                     "--snapshots", str(rng.integers(2, 5))]
        elif command == "kernel-moments":
            r = {}
            extra = ["--kernel", str(rng.choice(["gaussian", "exponential"])), "--scale", fmt(rng.uniform(0.5, 2.0)),
                     "--dimension", str(rng.integers(1, 4)), "--j-max", str(rng.integers(0, 4))]
        elif command == "sweep":
            axis = str(rng.choice(RATES))
            lo = log_uniform(rng, RATE_LOW, 1.0)
            extra = ["--axis", axis, "--start", fmt(lo), "--stop", fmt(lo * log_uniform(rng, 10.0, 100.0)),
                     "--samples", str(rng.integers(5, 31)), "--log", str(rng.integers(0, 2))]
        argv = [command] + [a for name, value in r.items() for a in (f"--{name}", fmt(value))] + extra
        if rng.random() < 0.5:  # the rest write to $FVW_OUTPUT_DIR/<command>.csv
            argv += self._out(command)
        return CliOp(argv, (0,), os.path.join(self.tmp_dir, f"{command}.csv"))

    def typical(self, op):
        return op.expect == (0,)

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.fvw.cli.main(op.argv)
            except SystemExit as exc:  # argparse errors exit with code 2
                code = exc.code
        return code

    def check(self, op, out, index, rerun):
        if out not in op.expect:
            return f"exit {out}, expected {op.expect}"
        if op.output is None:
            return None
        with open(op.output, "rb") as fh:
            data = fh.read()
        flags = dict(zip(op.argv[1::2], op.argv[2::2]))
        diffusive = float(flags.get("--c", 0)) > 0 or float(flags.get("--d", 0)) > 0
        reason = self._check_csv(op.argv[0], data, diffusive)
        if reason is None and index % self.RERUN_EVERY == 0:
            code = rerun(op)
            with open(op.output, "rb") as fh:
                if code != out or fh.read() != data:
                    return "rerun output not byte-identical"
        return reason

    @staticmethod
    def _check_csv(command, data: bytes, diffusive: bool) -> str | None:
        rows = list(csv.reader(io.StringIO(data.decode())))
        if len(rows) < 2:
            return "CSV has no data rows"
        header = rows[0]
        for row in rows[1:]:
            if len(row) != len(header):
                return "ragged CSV row"
            cells = dict(zip(header, row))
            for col, cell in cells.items():
                try:
                    value = float(cell)
                except ValueError:
                    continue  # labels such as "stable" or "coexistence"
                if math.isfinite(value):
                    continue
                # sweep marks quantities that do not apply as nan: mu_threshold
                # without diffusion, mu_star and sigma_star when there is no wave train.
                if command == "sweep" and math.isnan(value) and col in ("mu_threshold", "mu_star", "sigma_star"):
                    if not diffusive or (col != "mu_threshold" and float(cells["upsilon"]) >= 0):
                        continue
                return f"non-finite {col}={cell!r} in {command} CSV"
        return None

    def digest(self, op, out):
        if out != 0 or op.output is None:
            return repr(out).encode()
        with open(op.output, "rb") as fh:
            return fh.read()


def fmt(x) -> str:
    return repr(float(x))


WORKLOADS = {w.name: w for w in (AnalysisSweep, OdeEnsemble, PdePattern, CliBatch)}


def input_digest(workload: Workload) -> str:
    """Hash of every generated input, to check that a seed fixes the inputs."""
    h = hashlib.sha256()
    for op in workload.inputs:
        h.update(repr(op).encode())
    return h.hexdigest()

"""Command-line front end.

Every subcommand accepts the model parameters as flags and/or a plain-text
config file (key = value under [params]/[options] section headers), writes a
deterministic CSV table, and exits with 0 on success, 2 on validation errors,
3 on numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels, model, simulate, stability
from .simulate import _fmt, _write_csv
from .errors import (
    CFLViolation,
    DegenerateDiffusion,
    HypothesisViolated,
    NoWaveTrain,
    SlowDecay,
    StepFailure,
    ValidationError,
    VarsigmaOutOfRange,
)

OUTPUT_DIR_ENV = "FVW_OUTPUT_DIR"

PARAM_DEFAULTS = {
    "alpha": 1.0,
    "beta": 1.0,
    "gamma": 1.0,
    "delta": 1.0,
    "epsilon": 1.0,
    "eta": 1.0,
    "zeta": 1.0,
    "c": 0.0,
    "d": 0.0,
    "ell": 0.0,
}

# command -> {option_name: (type, default)}
COMMAND_OPTIONS = {
    "equilibria": {},
    "stability": {},
    "dispersion": {
        "mu_min": (float, 0.0),
        "mu_max": (float, 2.0),
        "samples": (int, 201),
    },
    "wavetrain": {},
    "competition": {
        "mu": (float, 0.01),
        "varsigma": (float, 0.5),
    },
    "simulate-ode": {
        "f0": (float, None),
        "v0": (float, None),
        "w0": (float, None),
        "method": (str, "rk4"),
        "dt": (float, 0.01),
        "t_final": (float, 50.0),
        "rtol": (float, 1e-8),
        "atol": (float, 1e-10),
    },
    "simulate-pde": {
        "grid_points": (int, 256),
        "domain_length": (float, 2.0 * math.pi),
        "mode": (int, 1),
        "rho": (float, 1e-4),
        "dt": (float, 0.001),
        "t_final": (float, 10.0),
        "snapshots": (int, 5),
    },
    "kernel-moments": {
        "kernel": (str, "gaussian"),
        "scale": (float, 1.0),
        "dimension": (int, 1),
        "j_max": (int, 2),
    },
    "sweep": {
        "axis": (str, "alpha"),
        "start": (float, 0.1),
        "stop": (float, 20.0),
        "samples": (int, 50),
        "log": (int, 0),
    },
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: model.ModelParams
    options: dict
    output: str

    def dump(self, stream) -> None:
        stream.write("[run]\n")
        stream.write(f"command = {self.command}\n\n[params]\n")
        for name in PARAM_DEFAULTS:
            stream.write(f"{name} = {_fmt(getattr(self.params, name))}\n")
        stream.write("\n[options]\n")
        for name, value in self.options.items():
            if value is not None:
                stream.write(f"{name} = {_fmt(value)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvw",
        description="Fire-vegetation-water reaction-diffusion model: analysis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="plain-text key=value config file")
        p.add_argument("--output", default=None, help="output CSV path")
        p.add_argument("--dump-config", action="store_true", help="print the resolved config and exit")
        for name in PARAM_DEFAULTS:
            p.add_argument(f"--{name}", type=float, default=None)
        for name, (typ, _default) in options.items():
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typ, default=None)
    return parser


def _load_config_file(path: str, command: str) -> tuple[dict, dict]:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValidationError(f"config file not readable: {path}")
    if cp.has_option("run", "command") and cp.get("run", "command") != command:
        raise ValidationError(
            f"config file is for command {cp.get('run', 'command')!r}, not {command!r}"
        )
    params = {k: float(v) for k, v in cp.items("params")} if cp.has_section("params") else {}
    options = dict(cp.items("options")) if cp.has_section("options") else {}
    for name in params:
        if name not in PARAM_DEFAULTS:
            raise ValidationError(f"unknown parameter {name!r} in config file")
    return params, options


def resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    spec = COMMAND_OPTIONS[command]
    file_params, file_options = ({}, {})
    if args.config:
        file_params, file_options = _load_config_file(args.config, command)

    params = {}
    for name, default in PARAM_DEFAULTS.items():
        cli_value = getattr(args, name)
        params[name] = cli_value if cli_value is not None else file_params.get(name, default)
    options = {}
    for name, (typ, default) in spec.items():
        cli_value = getattr(args, name)
        if cli_value is not None:
            options[name] = cli_value
        elif name in file_options:
            options[name] = typ(file_options[name])
        else:
            options[name] = default

    out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
    output = args.output if args.output else os.path.join(out_dir, f"{command}.csv")
    return RunConfig(command, model.ModelParams(**params), options, output)


def _eig_columns(root_set) -> list[float]:
    out = []
    for r in root_set.roots:
        out.extend((r.real, r.imag))
    return out


def cmd_equilibria(cfg: RunConfig) -> list[str]:
    e0, e1 = model.equilibria(cfg.params)
    rows = [[eq.label, eq.point.f, eq.point.v, eq.point.w] for eq in (e0, e1)]
    _write_csv(cfg.output, ["label", "f", "v", "w"], rows)
    return [f"E0=({_fmt(e0.point.f)}, {_fmt(e0.point.v)}, {_fmt(e0.point.w)})",
            f"E1=({_fmt(e1.point.f)}, {_fmt(e1.point.v)}, {_fmt(e1.point.w)})"]


def cmd_stability(cfg: RunConfig) -> list[str]:
    rows = []
    for which in ("E0", "E1"):
        verdict = stability.classify_equilibrium(which, cfg.params)
        rows.append(
            [which, verdict.upsilon, verdict.classification.value, *_eig_columns(verdict.eigenvalues)]
        )
    header = ["equilibrium", "upsilon", "classification",
              "eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im"]
    _write_csv(cfg.output, header, rows)
    return [f"{row[0]}: {row[2]} (Upsilon={_fmt(row[1])})" for row in rows]


def cmd_dispersion(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    if opts["samples"] < 2:
        raise ValidationError("samples must be at least 2")
    grid = np.linspace(opts["mu_min"], opts["mu_max"], opts["samples"])
    samples = stability.dispersion_curve(cfg.params, grid)
    rows = [
        [s.mu, s.a2, s.a1, s.a0, s.phi, s.stable, s.eigenvalues.max_real_part()]
        for s in samples
    ]
    _write_csv(cfg.output, ["mu", "a2", "a1", "a0", "phi", "stable", "max_re_eig"], rows)
    sign_changes = sum(
        1 for a, b in zip(samples, samples[1:]) if (a.phi < 0) != (b.phi < 0)
    )
    return [f"{len(samples)} samples, phi sign changes: {sign_changes}"]


def cmd_wavetrain(cfg: RunConfig) -> list[str]:
    wt = stability.find_wavetrain(cfg.params)
    x = wt.eigvec
    row = [wt.mu_star, math.sqrt(wt.mu_star), wt.sigma_star, wt.decay_eigenvalue,
           x[0].real, x[0].imag, x[1].real, x[1].imag, x[2].real, x[2].imag]
    header = ["mu_star", "k_star", "sigma_star", "decay_eigenvalue",
              "F_re", "F_im", "V_re", "V_im", "W_re", "W_im"]
    _write_csv(cfg.output, header, [row])
    return [f"mu*={_fmt(wt.mu_star)} sigma*={_fmt(wt.sigma_star)}"]


def cmd_competition(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    spec = stability.competition_instability(cfg.params, opts["mu"], opts["varsigma"])
    row = [spec.varsigma, spec.gamma, spec.mu,
           spec.q_coeffs.a2, spec.q_coeffs.a1, spec.q_coeffs.a0,
           spec.unstable, spec.continuation_root, *_eig_columns(spec.eigenvalues)]
    header = ["varsigma", "gamma", "mu", "a2", "a1", "a0", "unstable", "continuation_root",
              "eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im"]
    _write_csv(cfg.output, header, [row])
    return [f"unstable={_fmt(spec.unstable)} continuation_root={_fmt(spec.continuation_root)}"]


def cmd_simulate_ode(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    eq = model.coexistence_state(cfg.params)
    s0 = model.State(
        opts["f0"] if opts["f0"] is not None else eq.f,
        opts["v0"] if opts["v0"] is not None else eq.v,
        opts["w0"] if opts["w0"] is not None else eq.w,
    )
    icfg = simulate.IntegratorConfig(
        method=opts["method"], t_final=opts["t_final"], dt=opts["dt"],
        rtol=opts["rtol"], atol=opts["atol"],
    )
    traj = simulate.integrate_ode(s0, cfg.params, icfg)
    traj.write_csv(cfg.output)
    return [f"{len(traj.times)} steps, negativity={_fmt(traj.negativity_flag)}"]


def cmd_simulate_pde(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    field0 = simulate.single_mode_field(
        cfg.params, opts["grid_points"], opts["domain_length"], opts["mode"], opts["rho"]
    )
    icfg = simulate.IntegratorConfig(method="rk4", t_final=opts["t_final"], dt=opts["dt"])
    times = np.linspace(0.0, opts["t_final"], opts["snapshots"] + 1)[1:]
    snapshots = simulate.simulate_pde(field0, cfg.params, icfg, times)
    simulate.write_snapshots_csv([field0, *snapshots], cfg.output)
    return [f"{len(snapshots)} snapshots on {opts['grid_points']} grid points"]


_KERNELS = {
    "gaussian": lambda scale: (lambda r: math.exp(-((r / scale) ** 2))),
    "exponential": lambda scale: (lambda r: math.exp(-r / scale)),
}


def cmd_kernel_moments(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    if opts["kernel"] not in _KERNELS:
        raise ValidationError(f"unknown kernel {opts['kernel']!r}; choose from {sorted(_KERNELS)}")
    if opts["scale"] <= 0:
        raise ValidationError("scale must be positive")
    k0 = _KERNELS[opts["kernel"]](opts["scale"])
    result = kernels.kernel_moments(k0, opts["dimension"], opts["j_max"])
    constants = kernels.pizzetti_constants(opts["dimension"], opts["j_max"])
    rows = [[j, constants[j], ell] for j, ell in enumerate(result.moments)]
    _write_csv(cfg.output, ["j", "c_nj", "ell_j"], rows)
    return [f"ell_0..ell_{opts['j_max']} written"]


def cmd_sweep(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    axis = opts["axis"]
    if axis not in PARAM_DEFAULTS:
        raise ValidationError(f"unknown sweep axis {axis!r}")
    if opts["samples"] < 2:
        raise ValidationError("samples must be at least 2")
    if opts["log"]:
        if opts["start"] <= 0 or opts["stop"] <= 0:
            raise ValidationError("log-spaced sweep requires positive endpoints")
        values = np.geomspace(opts["start"], opts["stop"], opts["samples"])
    else:
        values = np.linspace(opts["start"], opts["stop"], opts["samples"])

    rows = []
    for value in values:
        kwargs = {name: getattr(cfg.params, name) for name in PARAM_DEFAULTS}
        kwargs[axis] = float(value)
        p = model.ModelParams(**kwargs)
        verdict = stability.classify_equilibrium("E1", p)
        has_diffusion = p.c > 0 or p.d > 0
        mu_threshold = stability.find_k0(p).mu_threshold if has_diffusion else math.nan
        if has_diffusion and verdict.upsilon < 0:
            wt = stability.find_wavetrain(p)
            mu_star, sigma_star = wt.mu_star, wt.sigma_star
        else:
            mu_star = sigma_star = math.nan
        rows.append([value, verdict.upsilon, verdict.classification.value, mu_threshold, mu_star, sigma_star])
    header = [axis, "upsilon", "classification", "mu_threshold", "mu_star", "sigma_star"]
    _write_csv(cfg.output, header, rows)
    signs = [r[1] > 0 for r in rows]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return [f"{len(rows)} rows, Upsilon sign changes: {crossings}"]


_DISPATCH = {
    "equilibria": cmd_equilibria,
    "stability": cmd_stability,
    "dispersion": cmd_dispersion,
    "wavetrain": cmd_wavetrain,
    "competition": cmd_competition,
    "simulate-ode": cmd_simulate_ode,
    "simulate-pde": cmd_simulate_pde,
    "kernel-moments": cmd_kernel_moments,
    "sweep": cmd_sweep,
}

_VALIDATION_ERRORS = (ValidationError, HypothesisViolated, VarsigmaOutOfRange, ValueError)
_NUMERICAL_ERRORS = (NoWaveTrain, DegenerateDiffusion, StepFailure, CFLViolation, SlowDecay)


def run(config: RunConfig, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    for line in _DISPATCH[config.command](config):
        stream.write(line + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.dump_config:
            config.dump(sys.stdout)
            return 0
        return run(config)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand accepts the model parameters as flags and/or a plain-text
config file (key = value under [params]/[options] section headers), writes a
deterministic CSV table, and exits with 0 on success, 2 on validation errors,
3 on numerical failures.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import os
import sys
import warnings

import numpy as np

from . import kernels, model, simulate, stability
from .simulate import _fmt, _write_csv
from .errors import CFLWarning, NumericalFailure, ValidationError

OUTPUT_DIR_ENV = "FVW_OUTPUT_DIR"

# Every model parameter is a float option; names, order and defaults come from the model.
PARAMS = {name: (float, value) for name, value in dataclasses.asdict(model.all_ones()).items()}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    params: model.ModelParams
    options: dict
    output: str

    def dump(self, stream) -> None:
        stream.write(f"[run]\ncommand = {self.command}\n")
        for section, values in (("params", dataclasses.asdict(self.params)), ("options", self.options)):
            stream.write(f"\n[{section}]\n")
            for name, value in values.items():
                if value is not None:
                    stream.write(f"{name} = {_fmt(value)}\n")


# The two file flags every subcommand takes before its parameters and options: name -> help.
_FILE_FLAGS = {"config": "plain-text key=value config file", "output": "output CSV path"}


@functools.cache
def _value_flags(command: str) -> dict:
    """Each option string of `command` that takes a value -> (dest, type), in the order its parser adds them."""
    spec = {**dict.fromkeys(_FILE_FLAGS, (str, None)), **PARAMS, **COMMANDS[command][1]}
    return {f"--{name.replace('_', '-')}": (name, typ) for name, (typ, _default) in spec.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fvw",
        description="Fire-vegetation-water reaction-diffusion model: analysis and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        for flag, (dest, typ) in _value_flags(command).items():
            p.add_argument(flag, dest=dest, type=typ, default=None, help=_FILE_FLAGS.get(dest))
            if dest == "output":  # --dump-config follows the file flags, in usage and help alike
                p.add_argument("--dump-config", action="store_true", help="print the resolved config and exit")
    return parser


def _parse_flags(argv: list) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` returns, read in one pass when argv is a command and then
    `--name value` pairs: each name one of the command's option strings exactly, each value a str that does not
    start with "-" and that the option's type converts. None for any other argv, which argparse reads instead."""
    if len(argv) % 2 == 0 or not isinstance(argv[0], str) or argv[0] not in COMMANDS:
        return None
    table = _value_flags(argv[0])
    args = {"command": argv[0], "dump_config": False, **dict.fromkeys(dest for dest, _typ in table.values())}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if not (isinstance(flag, str) and flag in table and isinstance(value, str)) or value.startswith("-"):
            return None
        dest, typ = table[flag]
        try:
            args[dest] = typ(value)
        except (TypeError, ValueError):
            return None
    return argparse.Namespace(**args)


def _load_config_file(path: str, command: str) -> dict:
    """The [params] and [options] entries of a config file, as raw strings."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ValidationError(f"config file not readable: {path}")
        file_command = cp.get("run", "command", fallback=command)
        sections = {s: dict(cp.items(s)) for s in ("params", "options") if cp.has_section(s)}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config file {path}: {exc}") from None
    if file_command != command:
        raise ValidationError(f"config file is for command {file_command!r}, not {command!r}")
    known = {"params": ("parameter", PARAMS), "options": ("option", COMMANDS[command][1])}
    for section, entries in sections.items():
        kind, table = known[section]
        for name in entries:
            if name not in table:
                raise ValidationError(f"unknown {kind} {name!r} in config file")
    return {name: value for entries in sections.values() for name, value in entries.items()}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each value from its flag, else the config file, else its default."""
    command = args.command
    spec = {**PARAMS, **COMMANDS[command][1]}
    from_file = _load_config_file(args.config, command) if args.config else {}
    values = {}
    try:
        for name, (typ, default) in spec.items():
            flag = getattr(args, name)
            values[name] = flag if flag is not None else (typ(from_file[name]) if name in from_file else default)
    except ValueError:
        raise ValidationError(f"config value {name} = {from_file[name]!r} is not a valid {typ.__name__}") from None
    params = model.ModelParams(**{name: values.pop(name) for name in PARAMS})

    out_dir = os.environ.get(OUTPUT_DIR_ENV, ".")
    output = args.output if args.output else os.path.join(out_dir, f"{command}.csv")
    return RunConfig(command, params, values, output)


def _eig_columns(root_set) -> list[float]:
    out = []
    for r in root_set.roots:
        out.extend((r.real, r.imag))
    return out


def cmd_equilibria(cfg: RunConfig) -> list[str]:
    e0, e1 = model.equilibria(cfg.params)
    rows = [[eq.label, eq.point.f, eq.point.v, eq.point.w] for eq in (e0, e1)]
    _write_csv(cfg.output, ["label", "f", "v", "w"], [list(zip(*rows))])
    return [f"E0=({_fmt(e0.point.f)}, {_fmt(e0.point.v)}, {_fmt(e0.point.w)})",
            f"E1=({_fmt(e1.point.f)}, {_fmt(e1.point.v)}, {_fmt(e1.point.w)})"]


def cmd_stability(cfg: RunConfig) -> list[str]:
    e0 = stability.classify_equilibrium("E0", cfg.params)
    ups = stability.upsilon(cfg.params)  # E1's discriminant, written beside both verdicts
    e1 = stability.classify_equilibrium("E1", cfg.params)
    rows = [[which, ups, verdict.classification.value, *_eig_columns(verdict.eigenvalues)]
            for which, verdict in (("E0", e0), ("E1", e1))]
    header = ["equilibrium", "upsilon", "classification",
              "eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im"]
    _write_csv(cfg.output, header, [list(zip(*rows))])
    return [f"{row[0]}: {row[2]} (Upsilon={_fmt(row[1])})" for row in rows]


def _grid(start: float, stop: float, samples: int, log: bool = False) -> np.ndarray:
    """`samples` values from start to stop, evenly spaced, or geometrically if log."""
    if not 2 <= samples <= simulate._MAX_ROWS:
        raise ValidationError(f"samples must lie in [2, {simulate._MAX_ROWS}], got {samples}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"grid ends must be finite, got {start} and {stop}")
    if log and not (start > 0 and stop > 0):
        raise ValidationError("log-spaced sweep requires positive endpoints")
    return np.geomspace(start, stop, samples) if log else np.linspace(start, stop, samples)


def cmd_dispersion(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    if min(opts["mu_min"], opts["mu_max"]) < 0:
        raise ValidationError("mu_min and mu_max must be nonnegative")
    samples = stability.dispersion_curve(cfg.params, _grid(opts["mu_min"], opts["mu_max"], opts["samples"]))
    mu, a2, a1, a0, phi, eigenvalues, stable = zip(*samples)
    columns = (*map(np.array, (mu, a2, a1, a0, phi)), stable, np.array([r.max_real_part() for r in eigenvalues]))
    _write_csv(cfg.output, ["mu", "a2", "a1", "a0", "phi", "stable", "max_re_eig"], [columns])
    sign_changes = sum(1 for a, b in zip(phi, phi[1:]) if (a < 0) != (b < 0))
    return [f"{len(samples)} samples, phi sign changes: {sign_changes}"]


def cmd_wavetrain(cfg: RunConfig) -> list[str]:
    wt = stability.find_wavetrain(cfg.params)
    x = wt.eigvec
    row = [wt.mu_star, math.sqrt(wt.mu_star), wt.sigma_star, wt.decay_eigenvalue,
           x[0].real, x[0].imag, x[1].real, x[1].imag, x[2].real, x[2].imag]
    header = ["mu_star", "k_star", "sigma_star", "decay_eigenvalue",
              "F_re", "F_im", "V_re", "V_im", "W_re", "W_im"]
    _write_csv(cfg.output, header, [list(zip(row))])
    return [f"mu*={_fmt(wt.mu_star)} sigma*={_fmt(wt.sigma_star)}"]


def cmd_competition(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    spec = stability.competition_instability(cfg.params, opts["mu"], opts["varsigma"])
    row = [opts["varsigma"], cfg.params.gamma, opts["mu"],
           spec.q_coeffs.a2, spec.q_coeffs.a1, spec.q_coeffs.a0,
           spec.unstable, spec.continuation_root, *_eig_columns(spec.eigenvalues)]
    header = ["varsigma", "gamma", "mu", "a2", "a1", "a0", "unstable", "continuation_root",
              "eig1_re", "eig1_im", "eig2_re", "eig2_im", "eig3_re", "eig3_im"]
    _write_csv(cfg.output, header, [list(zip(row))])
    return [f"unstable={_fmt(spec.unstable)} continuation_root={_fmt(spec.continuation_root)}"]


def cmd_simulate_ode(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    s0 = (opts["f0"], opts["v0"], opts["w0"])
    if None in s0:  # E1 stands in for each initial value not given; with all three given it is not read
        s0 = [e if x is None else x for x, e in zip(s0, model.coexistence_state(cfg.params))]
    s0 = model.State(*s0)
    icfg = simulate.IntegratorConfig(
        method=opts["method"], t_final=opts["t_final"], dt=opts["dt"],
        rtol=opts["rtol"], atol=opts["atol"],
    )
    traj = simulate.integrate_ode(s0, cfg.params, icfg)
    traj.write_csv(cfg.output)
    return [f"{len(traj.times) - 1} steps, negativity={_fmt(traj.negativity_flag)}"]


def cmd_simulate_pde(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    field0 = simulate.single_mode_field(
        cfg.params, opts["grid_points"], opts["domain_length"], opts["mode"], opts["rho"]
    )
    icfg = simulate.IntegratorConfig(method="rk4", t_final=opts["t_final"], dt=opts["dt"])
    if not 1 <= (opts["snapshots"] + 1) * opts["grid_points"] <= simulate._MAX_ROWS:  # the cells written
        raise ValidationError(f"(snapshots + 1) x grid_points must lie in [1, {simulate._MAX_ROWS}]")
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
    scale = opts["scale"]
    if not (scale > 0 and math.isfinite((1.0 / scale) * (1.0 / scale))):  # the Gaussian squares r / scale, r >= 1
        raise ValidationError(f"scale must be positive with (1 / scale)**2 finite, got {scale}")
    k0 = _KERNELS[opts["kernel"]](scale)
    result = kernels.kernel_moments(k0, opts["dimension"], opts["j_max"])
    columns = (range(len(result.moments)), result.constants, result.moments)
    _write_csv(cfg.output, ["j", "c_nj", "ell_j"], [columns])
    return [f"ell_0..ell_{opts['j_max']} written"]


def cmd_sweep(cfg: RunConfig) -> list[str]:
    opts = cfg.options
    axis = opts["axis"]
    if axis not in PARAMS:
        raise ValidationError(f"unknown sweep axis {axis!r}")
    rows = []
    for value in _grid(opts["start"], opts["stop"], opts["samples"], opts["log"]):
        p = dataclasses.replace(cfg.params, **{axis: float(value)})
        verdict = stability.classify_equilibrium("E1", p)
        ups = stability.upsilon(p)
        has_diffusion = p.c > 0 or p.d > 0
        if has_diffusion and ups < 0:
            wt = stability.find_wavetrain(p)  # the wave train is the threshold mode
            mu_threshold, mu_star, sigma_star = wt.mu_star, wt.mu_star, wt.sigma_star
        else:
            mu_threshold = stability.find_k0(p).mu_threshold if has_diffusion else math.nan
            mu_star = sigma_star = math.nan
        rows.append([value, ups, verdict.classification.value, mu_threshold, mu_star, sigma_star])
    header = [axis, "upsilon", "classification", "mu_threshold", "mu_star", "sigma_star"]
    _write_csv(cfg.output, header, [list(zip(*rows))])
    signs = [r[1] > 0 for r in rows]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return [f"{len(rows)} rows, Upsilon sign changes: {crossings}"]


# command -> (handler, {option_name: (type, default)})
COMMANDS = {
    "equilibria": (cmd_equilibria, {}),
    "stability": (cmd_stability, {}),
    "dispersion": (cmd_dispersion, {
        "mu_min": (float, 0.0),
        "mu_max": (float, 2.0),
        "samples": (int, 201),
    }),
    "wavetrain": (cmd_wavetrain, {}),
    "competition": (cmd_competition, {
        "mu": (float, 0.01),
        "varsigma": (float, 0.5),
    }),
    "simulate-ode": (cmd_simulate_ode, {
        "f0": (float, None),
        "v0": (float, None),
        "w0": (float, None),
        "method": (str, "rk4"),
        "dt": (float, 0.01),
        "t_final": (float, 50.0),
        "rtol": (float, 1e-8),
        "atol": (float, 1e-10),
    }),
    "simulate-pde": (cmd_simulate_pde, {
        "grid_points": (int, 256),
        "domain_length": (float, 2.0 * math.pi),
        "mode": (int, 1),
        "rho": (float, 1e-4),
        "dt": (float, 0.001),
        "t_final": (float, 10.0),
        "snapshots": (int, 5),
    }),
    "kernel-moments": (cmd_kernel_moments, {
        "kernel": (str, "gaussian"),
        "scale": (float, 1.0),
        "dimension": (int, 1),
        "j_max": (int, 2),
    }),
    "sweep": (cmd_sweep, {
        "axis": (str, "alpha"),
        "start": (float, 0.1),
        "stop": (float, 20.0),
        "samples": (int, 50),
        "log": (int, 0),
    }),
}

def run(config: RunConfig) -> int:
    try:
        lines = COMMANDS[config.command][0](config)
    except OSError as exc:  # the output is the one file a command opens, so its path is an invalid option value
        raise ValidationError(f"cannot write {config.output}: {exc.strerror or exc}") from None
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0


def _show_warning(show, message, category, filename, lineno, file=None, line=None):
    """Print a CFLWarning that the warning filters let through as one `warning:` line on stderr, without the
    source location and line Python adds; pass any other warning on to `show`."""
    if issubclass(category, CFLWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, filename, lineno, file, line)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_flags(argv) or build_parser().parse_args(argv)
    show = warnings.showwarning
    warnings.showwarning = functools.partial(_show_warning, show)
    try:
        config = resolve_config(args)
        if args.dump_config:
            config.dump(sys.stdout)
            return 0
        return run(config)
    except (ValidationError, NumericalFailure) as exc:  # the class decides the exit code; anything else is a bug
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        warnings.showwarning = show


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import hashlib
import io
import math
import os
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fvw.cli import _KERNELS, COMMANDS, PARAMS, build_parser, main, resolve_config

UNSTABLE_FLAGS = ["--alpha", "2", "--epsilon", "0.1", "--c", "1", "--d", "1"]


# sha256 of each subcommand's CSV as written by the per-command writers that the
# shared CSV writer replaced; any change to a digit, a cell rule or a row order shows here.
CSV_DIGESTS = [
    (["equilibria", "--alpha", "2", "--epsilon", "0.1"],
     "497c501693b4a9784b9771c92469a7306e4e6a9ec41a3335da0628f638a678d4"),
    (["stability", *UNSTABLE_FLAGS],
     "ec9a7e1ef0cb0a6a823ade7890c372c160f290f8b1df4cb7d812feeca37f1897"),
    (["dispersion", *UNSTABLE_FLAGS, "--mu-max", "2", "--samples", "51"],
     "c81168b7e02bbed294f28fc56ed1af7dce19a9e0bee2a73de38cc899b4213654"),
    (["wavetrain", *UNSTABLE_FLAGS],
     "d9145726eb90b5ef7f7784049060787056054ec483787c961479b5154cdd301b"),
    (["competition", "--gamma", "0.01", "--c", "1", "--d", "1", "--mu", "0.01", "--varsigma", "0.5"],
     "374155b5a3f62f9516bd9038d9422bdb8a1dd043e9a7cff826cd58f3355bd9c2"),
    (["simulate-ode", "--f0", "1", "--v0", "1", "--w0", "0.5", "--dt", "0.1", "--t-final", "2"],
     "d33d5e35d48a75778814d345780039068116491d7852fa0fcded2e6190716e3d"),
    (["simulate-pde", "--c", "1", "--d", "1", "--grid-points", "16", "--t-final", "0.2",
      "--snapshots", "2", "--rho", "0.01"],
     "9ab809aa059216284e8044c65dd4aaa26515b95abb4b6f39528fd0319b007600"),
    (["kernel-moments", "--kernel", "exponential", "--dimension", "2", "--j-max", "3"],
     "21a441b3f20cf130dc8a185518803f31d86885d5cb7fd5a3c3557e7c2c0e94ad"),
    (["sweep", *UNSTABLE_FLAGS, "--axis", "alpha", "--start", "0.5", "--stop", "5", "--samples", "12"],
     "b652d2ab9e1f8019f3bc1edd9a568cd0751214f015bedf921b0ff81ad77bb304"),
]


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


RATES = ("alpha", "beta", "gamma", "delta", "epsilon", "eta", "zeta")
# A valid value for every subcommand option; varsigma is drawn as a fraction of epsilon.
OPTION_VALUES = {
    "mu_min": st.floats(0.0, 1.0),
    "mu_max": log_uniform(1.0, 1e3),
    "samples": st.integers(2, 1000),
    "mu": log_uniform(1e-6, 1e2),
    "varsigma": st.floats(0.01, 0.99),
    "f0": st.none() | st.floats(0.0, 10.0),
    "v0": st.none() | st.floats(0.0, 10.0),
    "w0": st.none() | st.floats(0.0, 10.0),
    "method": st.sampled_from(["rk4", "rk45"]),
    "dt": log_uniform(1e-6, 1.0),
    "t_final": log_uniform(1e-3, 1e3),
    "rtol": log_uniform(1e-14, 1e-2),
    "atol": log_uniform(1e-14, 1e-2),
    "grid_points": st.integers(3, 4096),
    "domain_length": log_uniform(1e-3, 1e3),
    "mode": st.integers(0, 16),
    "rho": log_uniform(1e-8, 1.0),
    "snapshots": st.integers(1, 100),
    "kernel": st.sampled_from(sorted(_KERNELS)),
    "scale": log_uniform(1e-3, 1e3),
    "dimension": st.integers(1, 3),
    "j_max": st.integers(0, 6),
    "axis": st.sampled_from(list(PARAMS)),
    "start": log_uniform(1e-6, 1.0),
    "stop": log_uniform(1.0, 1e6),
    "log": st.integers(0, 1),
}


# OPTION_VALUES with draws that keep each simulate-* run to a few hundred steps on at most 32 grid points;
# rk45 is left out because its step count grows with the stiffness of the drawn rates, not with the options.
RUN_VALUES = {**OPTION_VALUES, "method": st.just("rk4"), "dt": log_uniform(1e-4, 1e-1),
              "grid_points": st.integers(3, 32), "snapshots": st.integers(0, 3)}


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestEquilibriaCommand:
    def test_all_ones(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert main(["equilibria", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["label", "f", "v", "w"]
        assert rows[0][0] == "trivial"
        assert [float(x) for x in rows[0][1:]] == [0.0, 0.0, 1.0]
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert rows[1][0] == "coexistence"
        for x in rows[1][1:]:
            assert float(x) == pytest.approx(golden, abs=1e-15)


class TestWavetrainCommand:
    def test_no_wavetrain_exit_code(self, tmp_path, capsys):
        code = main(["wavetrain", "--output", str(tmp_path / "wt.csv")])
        assert code == 3
        assert "no wave train: Upsilon >= 0" in capsys.readouterr().err

    def test_unstable_params(self, tmp_path):
        out = tmp_path / "wt.csv"
        assert main(["wavetrain", *UNSTABLE_FLAGS, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["mu_star"]) == pytest.approx(0.13741280215402435, abs=1e-9)
        assert float(row["sigma_star"]) == pytest.approx(1.6516166768020915, abs=1e-9)


class TestDispersionCommand:
    def test_phi_sign_change(self, tmp_path):
        out = tmp_path / "disp.csv"
        code = main(
            ["dispersion", *UNSTABLE_FLAGS, "--mu-max", "2", "--samples", "201",
             "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert len(rows) == 201
        phis = [float(r[header.index("phi")]) for r in rows]
        changes = [
            (mu_a, mu_b)
            for (mu_a, a), (mu_b, b) in zip(
                zip((float(r[0]) for r in rows), phis),
                list(zip((float(r[0]) for r in rows), phis))[1:],
            )
            if (a < 0) != (b < 0)
        ]
        assert len(changes) == 1
        assert changes[0][0] < 0.1374128 < changes[0][1] + 1e-12


class TestSweepCommand:
    def test_alpha_sweep_single_crossing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--epsilon", "0.1", "--axis", "alpha", "--start", "0.1",
             "--stop", "20", "--samples", "60", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        signs = [float(r[header.index("upsilon")]) > 0 for r in rows]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    def test_stable_range_zero_thresholds(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--c", "1", "--d", "1", "--axis", "alpha", "--start", "0.1",
             "--stop", "0.9", "--samples", "10", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert all(float(r[header.index("mu_threshold")]) == 0.0 for r in rows)

    def test_large_alpha_limit(self, tmp_path):
        # With unit rates, Upsilon - epsilon tends to -beta*gamma/epsilon = -1.
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--axis", "alpha", "--start", "1",
             "--stop", "1000", "--samples", "4", "--log", "1", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        ups = float(rows[-1][header.index("upsilon")])
        assert ups - 1.0 == pytest.approx(-1.0, rel=0.05)

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "bogus", "--output", str(tmp_path / "s.csv")]) == 2


class TestSimulateCommands:
    def test_ode_csv(self, tmp_path):
        out = tmp_path / "ode.csv"
        code = main(
            ["simulate-ode", "--f0", "1", "--v0", "1", "--w0", "1", "--dt", "0.1",
             "--t-final", "1", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "f", "v", "w"]
        assert len(rows) == 11

    def test_pde_csv(self, tmp_path):
        out = tmp_path / "pde.csv"
        code = main(
            ["simulate-pde", "--c", "1", "--d", "1", "--grid-points", "32",
             "--t-final", "0.5", "--snapshots", "2", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "f", "v", "w"]
        assert len(rows) == 3 * 32  # initial field plus two snapshots

    @pytest.mark.parametrize(
        "argv, when",
        [
            (["simulate-ode", "--alpha", "50", "--epsilon", "0.01", "--f0", "5", "--v0", "5",
              "--w0", "5", "--dt", "0.5", "--t-final", "50"], "t=1.5"),
            (["simulate-pde", "--c", "1", "--d", "1", "--alpha", "50", "--epsilon", "0.01",
              "--rho", "0.5", "--t-final", "5", "--grid-points", "64"], "t=1"),
        ],
    )
    def test_blow_up_exit_code(self, tmp_path, capsys, argv, when):
        out = tmp_path / "blowup.csv"
        assert main([*argv, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" at {when}\n")
        assert "non-finite" in err and "Traceback" not in err
        assert not out.exists()


class TestKernelMomentsCommand:
    def test_gaussian(self, tmp_path):
        out = tmp_path / "km.csv"
        assert main(["kernel-moments", "--kernel", "gaussian", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert float(rows[0][header.index("ell_j")]) == pytest.approx(math.sqrt(math.pi), abs=1e-9)

    def test_unknown_kernel(self, tmp_path):
        assert main(["kernel-moments", "--kernel", "sinc", "--output", str(tmp_path / "km.csv")]) == 2


class TestValidationAndDeterminism:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["equilibria", "--alpha", "-1"], "alpha"),
            (["simulate-ode", "--t-final", "inf"], "t_final"),
            (["simulate-pde", "--c", "1", "--d", "1", "--t-final", "inf"], "t_final"),
            (["simulate-pde", "--snapshots", "-2"], "snapshots"),
            (["simulate-ode", "--t-final", "1e300"], "t_final"),
            (["dispersion", "--samples", "100000000000000000000"], "samples"),
            (["sweep", "--samples", "100000000000000000000"], "samples"),
            (["simulate-pde", "--c", "1", "--d", "1", "--domain-length", "0"], "domain_length"),
            (["simulate-pde", "--c", "1", "--d", "1", "--domain-length", "inf"], "domain_length"),
            (["simulate-ode", "--method", "rk45", "--rtol", "inf"], "rtol"),
            (["simulate-ode", "--dt", "inf"], "dt"),
            (["dispersion", "--mu-min", "-1"], "mu_min"),
            (["dispersion", "--mu-max", "inf"], "finite"),
        ],
        ids=["alpha", "ode-t_final-inf", "pde-t_final-inf", "pde-snapshots-negative", "ode-t_final-1e300",
             "dispersion-samples-1e20", "sweep-samples-1e20", "pde-domain_length-0", "pde-domain_length-inf",
             "rk45-rtol-inf", "ode-dt-inf", "dispersion-mu_min-negative", "dispersion-mu_max-inf"],
    )
    def test_invalid_parameter_exit_code(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err
        assert not out.exists()

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dispersion", *UNSTABLE_FLAGS, "--samples", "51"]
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, digest", CSV_DIGESTS, ids=[argv[0] for argv, _ in CSV_DIGESTS])
    def test_csv_digest(self, tmp_path, argv, digest):
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FVW_OUTPUT_DIR", str(tmp_path))
        assert main(["equilibria"]) == 0
        assert (tmp_path / "equilibria.csv").exists()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_dump_config_round_trip(self, tmp_path, data):
        parser = build_parser()
        cfg_path = tmp_path / "run.cfg"
        for command, (_handler, spec) in COMMANDS.items():
            params = {name: data.draw(log_uniform(1e-6, 1e6), label=name) for name in RATES}
            for name in ("c", "d"):
                params[name] = data.draw(st.just(0.0) | log_uniform(1e-6, 1e6), label=name)
            options = {name: data.draw(OPTION_VALUES[name], label=name) for name in spec}
            if "varsigma" in options:
                options["varsigma"] *= params["epsilon"]
            argv = [command] + [
                arg for name, value in {**params, **options}.items() if value is not None
                for arg in (f"--{name.replace('_', '-')}", str(value))
            ]
            with redirect_stdout(io.StringIO()) as dumped:
                assert main([*argv, "--dump-config"]) == 0
            cfg_path.write_text(dumped.getvalue())

            original = resolve_config(parser.parse_args(argv))
            assert dataclasses.asdict(original.params) == {**params, "ell": 0.0}
            assert original.options == options
            reparsed = resolve_config(parser.parse_args([command, "--config", str(cfg_path)]))
            assert reparsed.command == original.command == command
            assert reparsed.params == original.params
            assert reparsed.options == original.options

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alpha = 2\n", "malformed config file"),
            ("[options]\nsampels = 5\n", "unknown option 'sampels'"),
            ("[params]\nomega = 3\n", "unknown parameter 'omega'"),
            ("[params]\nalpha = 50%\n", "malformed config file"),
            ("[params]\nalpha = abc\n", "config value alpha = 'abc' is not a valid float"),
            ("[options]\nsamples = 1.5\n", "config value samples = '1.5' is not a valid int"),
        ],
        ids=["no-section-header", "unknown-option", "unknown-parameter", "bad-interpolation",
             "non-float-parameter", "non-int-option"],
    )
    def test_bad_config_file_exit_code(self, tmp_path, capsys, text, message):
        cfg_path, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg_path.write_text(text)
        assert main(["dispersion", "--config", str(cfg_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists()

    def test_bug_is_not_a_validation_error(self, tmp_path, monkeypatch):
        # Only ValidationError and NumericalFailure map to exit codes; any other exception is a bug.
        def handler(cfg):
            raise ValueError("internal bug")

        monkeypatch.setitem(COMMANDS, "equilibria", (handler, {}))
        with pytest.raises(ValueError, match="internal bug"):
            main(["equilibria", "--output", str(tmp_path / "e.csv")])

    @pytest.mark.filterwarnings("ignore::fvw.errors.CFLWarning")
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract(self, tmp_path, data):
        # Every subcommand exits 0, 2 or 3 (an uncaught exception fails the test) over wide log-uniform
        # rates, and a run that exits 0 writes only finite cells, apart from sweep's nan-by-contract columns.
        out = tmp_path / "out.csv"
        for command, (_handler, spec) in COMMANDS.items():
            params = {name: data.draw(log_uniform(1e-6, 1e6), label=name) for name in RATES}
            for name in ("c", "d"):
                params[name] = data.draw(st.just(0.0) | log_uniform(1e-6, 1e6), label=name)
            options = {name: data.draw(RUN_VALUES[name], label=name) for name in spec}
            if "varsigma" in options:
                options["varsigma"] *= params["epsilon"]
            if command == "simulate-ode":
                options["t_final"] = options["dt"] * data.draw(st.integers(1, 500), label="steps")
            if command == "simulate-pde":
                h = options["domain_length"] / options["grid_points"]
                dmax = max(params["c"], params["d"])
                step = min(options["dt"], h * h / (2.0 * dmax)) if dmax else options["dt"]
                options["t_final"] = step * data.draw(st.integers(1, 200), label="steps")
            argv = [command] + [
                arg for name, value in {**params, **options}.items() if value is not None
                for arg in (f"--{name.replace('_', '-')}", str(value))
            ]
            out.unlink(missing_ok=True)
            code = main([*argv, "--output", str(out)])
            assert code in (0, 2, 3), argv
            assert out.exists() == (code == 0), argv
            if code == 0:
                header, rows = read_csv(out)
                for row in rows:
                    for column, cell in zip(header, row):
                        if cell in ("nan", "inf", "-inf"):
                            assert command == "sweep" and column in ("mu_threshold", "mu_star", "sigma_star"), argv

    def test_config_command_mismatch(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[run]\ncommand = sweep\n")
        assert main(["equilibria", "--config", str(cfg_path), "--output", str(tmp_path / "e.csv")]) == 2

    def test_cli_flags_override_config(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[params]\nalpha = 3\n\n[options]\nsamples = 5\n")
        parser = build_parser()
        cfg = resolve_config(
            parser.parse_args(["dispersion", "--config", str(cfg_path), "--alpha", "7"])
        )
        assert cfg.params.alpha == 7.0
        assert cfg.options["samples"] == 5

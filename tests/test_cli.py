import math
import os

import numpy as np
import pytest

from fvw.cli import build_parser, main, resolve_config

UNSTABLE_FLAGS = ["--alpha", "2", "--epsilon", "0.1", "--c", "1", "--d", "1"]


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
    def test_invalid_parameter_exit_code(self, tmp_path, capsys):
        code = main(["equilibria", "--alpha", "-1", "--output", str(tmp_path / "eq.csv")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dispersion", *UNSTABLE_FLAGS, "--samples", "51"]
        assert main([*args, "--output", str(a)]) == 0
        assert main([*args, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FVW_OUTPUT_DIR", str(tmp_path))
        assert main(["equilibria"]) == 0
        assert (tmp_path / "equilibria.csv").exists()

    def test_dump_config_round_trip(self, tmp_path, capsys):
        args = ["dispersion", *UNSTABLE_FLAGS, "--mu-max", "3.5", "--samples", "77"]
        assert main([*args, "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(dumped)

        parser = build_parser()
        original = resolve_config(parser.parse_args(args))
        reparsed = resolve_config(parser.parse_args(["dispersion", "--config", str(cfg_path)]))
        assert reparsed.command == original.command
        assert reparsed.params == original.params
        assert reparsed.options == original.options

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

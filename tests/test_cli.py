import dataclasses
import errno
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fvw import CFLWarning, ModelParams, all_ones, phi_cubic
from fvw.cli import _KERNELS, COMMANDS, PARAMS, _parse_flags, build_parser, main, resolve_config

from conftest import mp_mode_matrix

UNSTABLE_FLAGS = ["--alpha", "2", "--epsilon", "0.1", "--c", "1", "--d", "1"]


# sha256 of each subcommand's CSV; any change to a digit, a cell rule or a row order shows here.
# The dispersion and competition digests follow the one-path cubic solver; against
# mpmath.polyroots their eigenvalue columns lost no accuracy in the worst row or in the sum.
# The dispersion digest's phi column is Phi(mu) from phi_cubic; against mpmath at 80 digits it
# lost no accuracy in the worst row (14.6 -> 10.6 ulps) or in the sum (103.7 -> 50.2 ulps).
# The wavetrain digest's F/V/W columns are the LAPACK null vector of A(mu*) - i sigma*; against an
# mpmath eigenvector normalized the same way, its error grew from 6.4e-17 to 4.6e-16 (2-norm), the
# cost of one eigenvector routine that also holds beside near-Jordan pairs of eigenvalues.
CSV_DIGESTS = [
    (["equilibria", "--alpha", "2", "--epsilon", "0.1"],
     "497c501693b4a9784b9771c92469a7306e4e6a9ec41a3335da0628f638a678d4"),
    (["stability", *UNSTABLE_FLAGS],
     "ec9a7e1ef0cb0a6a823ade7890c372c160f290f8b1df4cb7d812feeca37f1897"),
    (["dispersion", *UNSTABLE_FLAGS, "--mu-max", "2", "--samples", "51"],
     "699b5aaa5662daffc07d911f467b47e86b32b5eeefd6a5e8e5f9e0fc5fec608f"),
    (["wavetrain", *UNSTABLE_FLAGS],
     "d1f0f016244eb6d033add918c5bdd3597b3f8a13afdb35e39421b1439058f961"),
    (["competition", "--gamma", "0.01", "--c", "1", "--d", "1", "--mu", "0.01", "--varsigma", "0.5"],
     "62222571e9b82e4dff18c0608837f571fd2327e4c3f5c6b624f3a6b7ba24ed3f"),
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

    def test_marginal_gap_beside_a_fast_decay(self, tmp_path):
        # a2(mu*) = 1.98e8 and sigma* = 1.45: the gap at mu*, -5.96e-8, is one ulp of a1 a2 and inside its band.
        rates = {"alpha": 3.6e7, "beta": 9.7e8, "gamma": 4.4e8, "delta": 3.3e6, "epsilon": 39.0, "eta": 420.0,
                 "zeta": 2.2e-10, "c": 2.9e-4, "d": 2.8e7}
        out = tmp_path / "wt.csv"
        argv = ["wavetrain", *(f"--{name}={value!r}" for name, value in rates.items()), "--output", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert len(rows) == 1 and all(math.isfinite(float(cell)) for cell in rows[0])
        row = dict(zip(header, rows[0]))
        with mpmath.workdps(50):
            values = mpmath.eig(mp_mode_matrix(ModelParams(**rates), float(row["mu_star"])), right=False)
            want = max(mpmath.im(z) for z in values)
            assert abs(float(row["sigma_star"]) - want) <= 1e-14 * want


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

    def test_no_stable_row_with_growing_mode(self, tmp_path):
        # a2 ~ 4e6 beside a0 ~ 3e-15: deflating forward from the large root cancels and gives the
        # small pair a large positive real part on rows whose Hurwitz verdict reads stable.
        out = tmp_path / "disp.csv"
        rates = {"alpha": "72421.12358245267", "beta": "9.405557796952751e-05", "gamma": "1.4937012015611743e-05",
                 "delta": "0.016150090906367515", "epsilon": "0.0390335893711053", "eta": "6110.267743067677",
                 "zeta": "0.00024357306116884738", "c": "90794.80642741422", "d": "0"}
        argv = ["dispersion", *(x for name, value in rates.items() for x in (f"--{name}", value)),
                "--mu-min", "0.33073717051097673", "--mu-max", "832.3438934452524", "--samples", "892"]
        assert main([*argv, "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 892
        stable, max_re = header.index("stable"), header.index("max_re_eig")
        assert not [r for r in rows if r[stable] == "true" and float(r[max_re]) > 0.0]


# The unstable example's rates (alpha = 2, epsilon = 0.1, unit rest) with time measured in units 1000 times longer.
SLOW_RATES = ["--alpha", "2e-3", "--beta", "1e-3", "--gamma", "1e-3", "--delta", "1e-3", "--epsilon", "1e-4",
              "--eta", "1e-3", "--zeta", "1e-3"]


class TestVerdictsBySign:
    """Each verdict is a sign, so none depends on the unit of time or on a magnitude past the float range."""

    def test_e1_verdict_in_slower_units(self, tmp_path, capsys):
        assert main(["stability", *SLOW_RATES, "--output", str(tmp_path / "s.csv")]) == 0
        assert "E1: unstable (Upsilon=-0.00055887234393789116)" in capsys.readouterr().out.splitlines()

    def test_dispersion_verdict_in_slower_units(self, tmp_path):
        # mu* = 0.1374..., as in the example's own units: the rows past it decay, at -6.5e-6 and -3.2e-5.
        out = tmp_path / "d.csv"
        argv = ["dispersion", *SLOW_RATES, "--c", "1e-3", "--d", "1e-3", "--mu-min", "0", "--mu-max", "0.2"]
        assert main([*argv, "--samples", "5", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        stable, max_re = header.index("stable"), header.index("max_re_eig")
        assert [row[stable] for row in rows] == ["false", "false", "false", "true", "true"]
        assert [float(row[max_re]) < 0.0 for row in rows] == [False, False, False, True, True]

    def test_competition_verdict_at_large_mu(self, tmp_path, capsys):
        # a0 < 0: Q has a real root near varsigma = 0.5 beside two near -1e5.
        out = tmp_path / "c.csv"
        argv = ["competition", "--mu", "1e5", "--varsigma", "0.5", "--gamma", "0.01", "--c", "1", "--d", "1"]
        assert main([*argv, "--output", str(out)]) == 0
        assert capsys.readouterr().out.startswith("unstable=true ")
        header, rows = read_csv(out)
        assert rows[0][header.index("unstable")] == "true" and float(rows[0][header.index("a0")]) < 0.0

    def test_e1_verdict_where_phi_overflows(self, tmp_path, capsys):
        # Upsilon = 9.68e129, while Phi's b0 = delta zeta v* w* Upsilon and the gap's band both overflow to inf.
        argv = ["stability", "--alpha", "1.82e-121", "--beta", "1.1e-54", "--gamma", "9.93e112", "--delta", "1.56e80",
                "--epsilon", "8.39e-58", "--eta", "3.51e50", "--zeta", "1.59e88"]
        out = tmp_path / "s.csv"
        assert main([*argv, "--output", str(out)]) == 0
        assert "E1: stable (Upsilon=9.676038150282079e+129)" in capsys.readouterr().out.splitlines()
        header, rows = read_csv(out)
        assert max(float(rows[1][header.index(f"eig{i}_re")]) for i in (1, 2, 3)) < 0.0


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


class TestExtremeMagnitudes:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["dispersion", "--samples", "5", "--beta", "1e200"], 0),
            (["competition", "--d", "1e200", "--gamma", "0.01", "--c", "1"], 0),
            (["dispersion", "--samples", "3", "--c", "1e200"], 3),
            (["wavetrain", "--alpha", "2", "--epsilon", "0.1", "--c", "1", "--d", "1e200"], 3),
            (["stability", "--alpha", "1e200"], 0),
            (["equilibria", "--alpha", "1e200"], 0),
        ],
        ids=["dispersion-beta", "competition-d", "dispersion-c", "wavetrain-d", "stability-alpha",
             "equilibria-alpha"],
    )
    def test_exit_code_and_finite_cells(self, tmp_path, capsys, argv, code):
        # Coefficients near 1e200: exit 0 with finite cells, or exit 3 when Phi(mu) leaves the float range.
        # At alpha = 1e200, alpha^2 eps^2 is past the float range while E1 = (1, 1e-200, 1) is not.
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == code
        if code == 0:
            _, rows = read_csv(out)
            assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}
        else:
            assert capsys.readouterr().err.startswith("error: Phi(mu) is not finite")
            assert not out.exists()

    @pytest.mark.parametrize(
        "args, code",
        [(["--eta=1e200"], 0), (["--delta=1e-300"], 0), (["--zeta=1e-300"], 0), (["--eta=1e-300"], 0),
         # Overrides every flag of UNSTABLE_FLAGS; A(mu*) holds inf.
         (["--alpha", "1.4419514174222372e+50", "--beta", "2.3855378186875e-48", "--gamma", "1.230872055701697e-190",
           "--delta", "3.84787611798078e-125", "--epsilon", "5.666386847325011e-125",
           "--eta", "2.7986899234314622e-42", "--zeta", "2.724289696687403e+299",
           "--c", "3.39754429272263e-89", "--d", "2.676511363378864e-32"], 3)],
        ids=["eta-1e200", "delta-1e-300", "zeta-1e-300", "eta-1e-300", "inf-in-A"],
    )
    def test_wavetrain_eigenvector_at_extreme_rates(self, tmp_path, capsys, args, code):
        # The eigenvector is a LAPACK singular vector, unit-norm at any scale of A: rates near 1e200 or
        # 1e-300 write finite cells, and a matrix LAPACK cannot take exits 3, never 0 with nan.
        out = tmp_path / "out.csv"
        assert main(["wavetrain", *UNSTABLE_FLAGS, *args, "--output", str(out)]) == code
        if code == 0:
            header, rows = read_csv(out)
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)
            if args == ["--zeta=1e-300"]:
                # mu* = -b0/b1 = 8.43e-301: Phi's b2 and b3 terms lie below the last bit of b1 mu* there.
                phi = phi_cubic(all_ones(alpha=2.0, epsilon=0.1, c=1.0, d=1.0, zeta=1e-300))
                assert float(rows[0][header.index("mu_star")]) == -phi.b0 / phi.b1
        else:
            assert capsys.readouterr().err.startswith("error: eigenvector for the eigenvalue nearest")
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["stability", "--gamma", "1e300"], 3, "the mode cubic is not finite"),
            (["dispersion", "--gamma", "1e300", "--samples", "3"], 3, "the mode cubic is not finite"),
            (["competition", "--gamma", "1e300"], 3, "the competition cubic is not finite"),
            (["sweep", "--gamma", "1e300", "--samples", "3"], 3, "the mode cubic is not finite"),
            # E0's verdict is finite; E1, whose Upsilon the CSV writes beside both verdicts, is not.
            (["stability", "--alpha", "1e-300", "--beta", "1e300", "--delta", "1e-300"], 3,
             "the coexistence equilibrium leaves the float range"),
            (["competition", "--mu", "nan"], 2, "mu must be positive and finite"),
            (["competition", "--mu", "inf"], 2, "mu must be positive and finite"),
            # Phi's coefficients are finite; its value at the second sample is not.
            (["dispersion", "--mu-max", "1e308", "--c", "1", "--d", "1"], 3,
             "Phi(mu) is not finite: its value inf at mu = 5e+305 leaves the float range\n"),
            # Valid input with no result either: an unstable E1 without diffusion has no wave train, and an
            # exponential kernel of scale 1e7 is not negligible by the largest truncation radius.
            (["wavetrain", "--alpha", "2", "--epsilon", "0.1"], 3,
             "the diffusion threshold and wave trains require c > 0 or d > 0\n"),
            (["kernel-moments", "--kernel", "exponential", "--scale", "1e7"], 3,
             "kernel has not decayed below 1e-16*K0(0) by radius 100000000.0\n"),
        ],
        ids=["stability-gamma", "dispersion-gamma", "competition-gamma", "sweep-gamma", "stability-e1-past-e0",
             "competition-mu-nan", "competition-mu-inf", "dispersion-phi-value", "wavetrain-no-diffusion",
             "kernel-slow-decay"],
    )
    def test_overflowing_cubic_coefficients(self, tmp_path, capsys, argv, code, message):
        # Valid rates whose mode or competition cubic, or Phi at a sampled mu, leaves the float range have no
        # result (exit 3); a mu that is not finite is invalid input (exit 2).
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == code
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["equilibria", "stability", "dispersion"])
    def test_underflowing_equilibrium(self, tmp_path, capsys, command):
        # alpha eps and 4 alpha beta delta gamma underflow here, but D = sqrt(alpha^2 eps^2 + 4 alpha beta delta
        # gamma) + alpha eps, the denominator of w* and Upsilon, is scaled by a power of two: E1 = (1, 1, 1) and
        # Upsilon = 1, as mpmath gives them, and with c = d = 0 Phi(mu) = delta zeta v* w* Upsilon = 1.
        out = tmp_path / "out.csv"
        argv = [command, "--alpha", "1e-300", "--beta", "1e-300", "--epsilon", "1e-300", "--output", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        if command == "equilibria":
            assert [float(x) for x in rows[1][1:]] == pytest.approx([1.0, 1.0, 1.0], rel=1e-15)
        elif command == "stability":
            assert float(rows[1][header.index("upsilon")]) == pytest.approx(1.0, rel=1e-15)
        else:
            assert [float(row[header.index("phi")]) for row in rows] == pytest.approx([1.0] * len(rows), rel=1e-15)
        # Here v* ~ 1e315 leaves the float range: a typed error, not a traceback or a CSV.
        out.unlink()
        assert main([command, "--beta", "1e300", "--gamma", "1e300", "--delta", "1e-30", "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "leaves the float range" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, e1",
        [(["--alpha", "1e-3", "--beta", "1e154", "--gamma", "1e154", "--delta", "2e-3"],
          [0.5**0.5, 0.5**0.5 * 1e157, 0.5**0.5]),
         (["--alpha", "1e10", "--beta", "1e-300"], [1.0, 1e-310, 1.0])],
        ids=["overflowing-2-beta-gamma", "subnormal-v"],
    )
    def test_equilibrium_in_range_past_a_partial_product(self, tmp_path, argv, e1):
        # 2 beta gamma = 2e308 overflows in the first case, and v* = 1e-310 is a subnormal float in the second;
        # E1 is in range in both, as mpmath gives it.
        out = tmp_path / "out.csv"
        assert main(["equilibria", *argv, "--output", str(out)]) == 0
        assert [float(x) for x in read_csv(out)[1][1][1:]] == pytest.approx(e1, rel=1e-13)
        # simulate-ode reads E1 only for the initial values it is not given.
        assert main(["simulate-ode", *argv, "--dt", "1e-170", "--t-final", "1e-170", "--output", str(out)]) == 0
        assert [float(x) for x in read_csv(out)[1][0][1:]] == pytest.approx(e1, rel=1e-13)

    def test_simulate_ode_reads_e1_only_for_missing_initial_values(self, tmp_path):
        # v* ~ 1e315 leaves the float range, which matters only where E1 supplies an initial value.
        out = tmp_path / "out.csv"
        rates = ["--beta", "1e300", "--gamma", "1e300", "--delta", "1e-30", "--dt", "1e-301", "--t-final", "1e-300"]
        assert main(["simulate-ode", *rates, "--f0", "1", "--v0", "1", "--w0", "1", "--output", str(out)]) == 0
        assert main(["simulate-ode", *rates, "--v0", "1", "--w0", "1", "--output", str(out)]) == 3

    @pytest.mark.parametrize(
        "argv",
        [["equilibria", "--gamma", "1e300", "--epsilon", "1e-10"],
         ["stability", "--beta", "1e150", "--gamma", "1e150", "--epsilon", "1e-10"]],
        ids=["equilibria-gamma-over-epsilon", "stability-e0-eigenvalue"],
    )
    def test_trivial_equilibrium_leaves_the_float_range(self, tmp_path, capsys, argv):
        # E0 = (0, 0, gamma/epsilon) and its eigenvalue -beta gamma/epsilon overflow to inf here: exit 3.
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "the trivial equilibrium leaves the float range" in err
        assert "Traceback" not in err and not out.exists()

    def test_wavetrain_with_sigma_past_the_power_range(self, tmp_path):
        # sigma* = 1.6e125: the factorization's band sigma^3 overflows to inf as a product (Python's
        # float ** raises OverflowError past 5.6e102), so the run writes finite cells or exits 3.
        out = tmp_path / "out.csv"
        code = main(["wavetrain", *UNSTABLE_FLAGS, "--zeta", "1e250", "--output", str(out)])
        assert code in (0, 3)
        if code == 0:
            _, rows = read_csv(out)
            assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract_at_the_float_range_edges(self, tmp_path, capsys, data):
        # c, d and the seven rates log-uniform in [1e-300, 1e300], where partial products of E1 and Upsilon
        # leave the float range. Each run exits 0 with finite cells, or exits 2 or 3 with a typed error and
        # no traceback. wavetrain stays out: with c, d -> 0 Phi's root can lie past 2^99, where its guard raises
        # the bare RuntimeError that benchmark probe 1 pins until that probe is retired.
        out = tmp_path / "out.csv"
        for command in ("equilibria", "stability", "dispersion", "competition"):
            params = {name: data.draw(log_uniform(1e-300, 1e300), label=name) for name in PARAMS}
            options = {name: data.draw(RUN_VALUES[name], label=name) for name in COMMANDS[command][1]}
            if "varsigma" in options:
                options["varsigma"] *= params["epsilon"]
            argv = [command] + [arg for name, value in {**params, **options}.items()
                                for arg in (f"--{name.replace('_', '-')}", str(value))]
            out.unlink(missing_ok=True)
            code = main([*argv, "--output", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3) and out.exists() == (code == 0), argv
            if code == 0:
                _, rows = read_csv(out)
                assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}, argv
            else:
                assert err.startswith("error: ") and "Traceback" not in err, argv

    def test_stability_does_not_read_diffusion(self, tmp_path):
        # The E1 verdict is the sign of Upsilon, which holds no c or d.
        base, wide = tmp_path / "base.csv", tmp_path / "wide.csv"
        assert main(["stability", "--output", str(base)]) == 0
        assert main(["stability", "--c", "1e200", "--d", "1e200", "--output", str(wide)]) == 0
        assert base.read_bytes() == wide.read_bytes()


class TestSimulateCommands:
    def test_ode_csv(self, tmp_path, capsys):
        out = tmp_path / "ode.csv"
        code = main(
            ["simulate-ode", "--f0", "1", "--v0", "1", "--w0", "1", "--dt", "0.1",
             "--t-final", "1", "--output", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "f", "v", "w"]
        assert len(rows) == 11  # the start and ten steps
        assert capsys.readouterr().out.startswith("10 steps, ")

    def test_ode_reports_steps_not_rows(self, tmp_path, capsys):
        # dt past t_final: one step of t_final, two CSV rows
        assert main(["simulate-ode", "--dt", "100", "--t-final", "1", "--output", str(tmp_path / "ode.csv")]) == 0
        assert capsys.readouterr().out.startswith("1 steps, ")

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

    # The default geometry, N = 256 on 2 pi, where the default dt = 1e-3 exceeds the CFL bound h^2 / 2.
    CLAMPED = ["simulate-pde", "--c", "1", "--d", "1", "--t-final", "0.01", "--snapshots", "1"]

    def test_cfl_clamp_prints_one_warning_line(self, tmp_path, capsys):
        out = tmp_path / "pde.csv"
        assert main([*self.CLAMPED, "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: dt clamped from 0.001 to CFL bound 0.000301196\n"
        assert captured.out == "1 snapshots on 256 grid points\n"
        assert len(read_csv(out)[1]) == 2 * 256

    def test_ignored_cfl_warning_prints_nothing(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            assert main([*self.CLAMPED, "--output", str(tmp_path / "pde.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_other_warnings_pass_through(self, tmp_path, capsys, monkeypatch):
        def handler(cfg):
            warnings.warn("not a CFL warning", UserWarning)
            return []

        monkeypatch.setitem(COMMANDS, "equilibria", (handler, {}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["equilibria", "--output", str(tmp_path / "e.csv")]) == 0
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (UserWarning, "not a CFL warning", __file__)]
        assert capsys.readouterr().err == ""

    def test_runtime_warning_still_raises(self, tmp_path, monkeypatch):
        # The test configuration turns RuntimeWarning into an error; the CLI's warning display must not catch it.
        def handler(cfg):
            warnings.warn("overflow", RuntimeWarning)
            return []

        monkeypatch.setitem(COMMANDS, "equilibria", (handler, {}))
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(["equilibria", "--output", str(tmp_path / "e.csv")])

    def test_rk45_evaluation_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fvw.simulate._MAX_ROWS", 100)
        out = tmp_path / "ode.csv"
        assert main(["simulate-ode", "--method", "rk45", "--t-final", "1e300", "--output", str(out)]) == 2
        assert capsys.readouterr().err == ("error: rk45 needs more than 600 right-hand side evaluations "
                                           "to reach t_final=1e+300\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, when",
        [
            (["simulate-ode", "--alpha", "50", "--epsilon", "0.01", "--f0", "5", "--v0", "5",
              "--w0", "5", "--dt", "0.5", "--t-final", "50"], "t=1.5"),
            (["simulate-pde", "--c", "1", "--d", "1", "--alpha", "50", "--epsilon", "0.01",
              "--rho", "0.5", "--t-final", "5", "--grid-points", "64"], "t=0.52800000000000002"),
        ],
    )
    def test_blow_up_exit_code(self, tmp_path, capsys, argv, when):
        out = tmp_path / "blowup.csv"
        assert main([*argv, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" at {when}\n")
        assert "non-finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # f0 < 0 leaves the positive octant and the run blows up: the step shrinks below the spacing of floats
        # long before any state overflows.
        ["--f0", "-1", "--v0", "1", "--w0", "1", "--t-final", "50"],
        # f' = f (alpha v - beta w) = inf - inf at the start, so the first step is nan.
        ["--alpha", "1e300", "--beta", "1e300", "--f0", "1", "--v0", "1e10", "--w0", "1e10", "--t-final", "1"],
    ], ids=["negative-f0", "nan-derivative"])
    def test_rk45_blow_up_exit_code(self, tmp_path, capsys, argv):
        # Both fail with exit 3 at once, without an OverflowError or a RuntimeWarning.
        out = tmp_path / "blowup.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate-ode", *argv, "--method", "rk45", "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err == ("error: adaptive integration failed: "
                                           "Required step size is less than spacing between numbers.\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
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
            (["simulate-pde", "--c", "1", "--d", "1", "--domain-length", "1e-300"], "domain_length"),
            (["simulate-ode", "--method", "rk45", "--rtol", "inf"], "rtol"),
            (["simulate-ode", "--method", "rk45", "--rtol", "1e-300"], "rtol"),  # below scipy's 100 eps floor
            (["simulate-ode", "--dt", "inf"], "dt"),
            (["dispersion", "--mu-min", "-1"], "mu_min"),
            (["dispersion", "--mu-max", "inf"], "finite"),
            (["kernel-moments", "--scale", "1e-300"], "scale"),
            (["kernel-moments", "--dimension", "400"], "dimension"),
            (["kernel-moments", "--dimension", "100", "--scale", "1e6"], "dimension"),
            # The CFL-clamped dt: 0.01 / 5e-311 steps overflow a float; 3.3e31 steps on 256 points exceed the work cap.
            (["simulate-pde", "--c", "1e300", "--domain-length", "2.56e-3", "--t-final", "0.01", "--snapshots", "1"],
             "steps"),
            (["simulate-pde", "--c", "1e30", "--t-final", "0.01", "--snapshots", "1"], "steps"),
            (["simulate-pde", "--domain-length", "1e-300"], "domain_length"),  # c = d = 0, h^2 underflows to 0
            (["simulate-pde", "--rho", "inf"], "rho"),
            (["simulate-pde", "--rho", "nan"], "rho"),
            (["simulate-ode", "--f0", "nan", "--v0", "1", "--w0", "1"], "initial state"),
            # Caps on what a run holds and does, checked before any allocation: 1e10 RK4 rows, 2^50 snapshots of
            # 256 cells, and 1e10 steps of dt = 1e-300 on 256 grid points.
            (["simulate-ode", "--dt", "1e-300", "--t-final", "1e-290"], "dt"),
            (["simulate-pde", "--snapshots", "1125899906842624"], "snapshots"),
            (["simulate-pde", "--c", "1", "--d", "1", "--dt", "1e-300", "--t-final", "1e-290", "--snapshots", "1"],
             "dt"),
            (["sweep", "--axis", "alpha", "--start", "0", "--stop", "10", "--log", "1"],
             "log-spaced sweep requires positive endpoints"),
            (["sweep", "--axis", "alpha", "--start", "1", "--stop", "-1", "--log", "1"],
             "log-spaced sweep requires positive endpoints"),
            (["competition", "--varsigma", "2"], "error: varsigma must lie in (0, epsilon=1.0), got 2.0\n"),
        ],
        ids=["alpha", "ode-t_final-inf", "pde-t_final-inf", "pde-snapshots-negative", "ode-t_final-1e300",
             "dispersion-samples-1e20", "sweep-samples-1e20", "pde-domain_length-0", "pde-domain_length-inf",
             "pde-domain_length-1e-300", "rk45-rtol-inf", "rk45-rtol-below-floor", "ode-dt-inf",
             "dispersion-mu_min-negative", "dispersion-mu_max-inf", "kernel-scale-1e-300", "kernel-dimension-400",
             "kernel-dimension-100-scale-1e6", "pde-clamped-steps-overflow", "pde-clamped-steps-past-2^53",
             "pde-no-diffusion-domain_length-1e-300", "pde-rho-inf", "pde-rho-nan", "ode-f0-nan",
             "ode-rows-past-cap", "pde-snapshot-cells-past-cap", "pde-work-past-cap", "sweep-log-start-0",
             "sweep-log-stop-negative", "competition-varsigma-past-epsilon"],
    )
    def test_invalid_parameter_exit_code(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where, reason", [
        ("missing/x.csv", errno.ENOENT),  # as --output /nonexistent/x.csv
        (".", errno.EISDIR),  # as --output /tmp
    ], ids=["missing-directory", "directory"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, where, reason):
        # The output path is an option value: one that cannot be opened for writing exits 2 with one line.
        out = tmp_path / where
        assert main(["equilibria", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(reason)}\n"

    def test_device_output(self, capsys):
        # A device takes the table as it is written; only a regular file is cut to the new table's length.
        assert main(["equilibria", "--output", os.devnull]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("argv, digest, block_rows", [
        *(pytest.param(argv, digest, 7, id=argv[0]) for argv, digest in CSV_DIGESTS),
        *(pytest.param(argv, digest, 1, id=f"{argv[0]}-block_rows=1") for argv, digest in CSV_DIGESTS),
    ])
    def test_csv_digest_across_blocks(self, tmp_path, monkeypatch, argv, digest, block_rows):
        # Every table is written as column blocks. Cut into blocks of 7 rows, a snapshot of 16 points among them,
        # or after every row, which splits even the one- and two-row tables, the tables keep their digests.
        monkeypatch.setattr("fvw.simulate._CSV_BLOCK_ROWS", block_rows)
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_ell_is_not_a_parameter(self, tmp_path):
        # Competition strength enters only as competition's --varsigma: no flag, sweep axis or config key names ell.
        out = tmp_path / "out.csv"
        for command in COMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--ell", "5", "--output", str(out)])
            assert exc.value.code == 2
        assert main(["sweep", "--axis", "ell", "--output", str(out)]) == 2
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[params]\nell = 0\n")
        assert main(["competition", "--config", str(cfg_path), "--output", str(out)]) == 2
        assert not out.exists()

    def test_parser_survives_an_argparse_error(self, tmp_path):
        # The parser is built once per process; an argparse error on it must not change the next run.
        argv = ["dispersion", *UNSTABLE_FLAGS, "--samples", "21"]
        alone, after_error = tmp_path / "alone.csv", tmp_path / "after.csv"
        build_parser.cache_clear()
        assert main([*argv, "--output", str(alone)]) == 0
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--samples", "many", "--output", str(after_error)])
        assert exc.value.code == 2
        assert main([*argv, "--output", str(after_error)]) == 0
        assert build_parser() is build_parser()
        assert after_error.read_bytes() == alone.read_bytes()

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
            assert dataclasses.asdict(original.params) == params
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
            (None, "config file not readable"),  # no file at the path
            (b"\xff\xfe[params]\nalpha = 2\n", "malformed config file"),  # not valid UTF-8
        ],
        ids=["no-section-header", "unknown-option", "unknown-parameter", "bad-interpolation",
             "non-float-parameter", "non-int-option", "missing-file", "non-utf-8"],
    )
    def test_bad_config_file_exit_code(self, tmp_path, capsys, text, message):
        cfg_path, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        if isinstance(text, bytes):
            cfg_path.write_bytes(text)
        elif text is not None:
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

    @pytest.mark.parametrize("argv, code", [
        (["stability"], 0),
        (["stability", "--alpha", "-1"], 2),
        (["wavetrain"], 3),  # unit rates: Upsilon = 1, so there is no wave train
    ], ids=["ok", "validation-error", "numerical-failure"])
    def test_exit_code_of_the_module_run_as_a_process(self, tmp_path, argv, code):
        # `python -m fvw.cli` runs the __main__ guard, which passes main's return value to sys.exit.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-m", "fvw.cli", *argv, "--output", str(tmp_path / "out.csv")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == code
        assert "Traceback" not in run.stderr
        if code:
            assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        assert (tmp_path / "out.csv").exists() == (code == 0)

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


# The option strings of a command that take a value, as build_parser names them; the grammar's other tokens are
# argparse's other forms (a store_true flag, help, an abbreviation, --name=value, the end of options, an unknown
# flag), and values it reads apart from the table pass or that a type rejects.
def value_flags(command):
    return [f"--{name.replace('_', '-')}" for name in ("config", "output", *PARAMS, *COMMANDS[command][1])]


OTHER_TOKENS = ["--dump-config", "-h", "--alp", "--alpha=2", "--", "--bogus"]
VALUE_TOKENS = ["", "nan", "inf", "-inf", "-1", "-1e-5", " 2 ", "1_000", "0x10", "1e400", "abc", "2", "rk4"]


class TestFlagParsing:
    def test_table_pass_needs_no_parser(self, tmp_path, monkeypatch):
        # `--name value` argvs of all nine commands are read without argparse and write the pinned CSVs.
        def no_parser():
            raise AssertionError("argparse was used")

        monkeypatch.setattr("fvw.cli.build_parser", no_parser)
        out = tmp_path / "out.csv"
        for argv, digest in CSV_DIGESTS:
            assert main([*argv, "--output", str(out)]) == 0, argv
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv

    @pytest.mark.parametrize("argv, full, config", [
        (["stability", "--alp", "2"], ["stability", "--alpha", "2"], None),
        (["stability", "--alpha=2"], ["stability", "--alpha", "2"], None),
        (["stability", "--alp=2", "--epsilon", "0.1"], ["stability", "--alpha", "2", "--epsilon", "0.1"], None),
        # No `--name value` pair holds a value that starts with "-": the config file holds it instead.
        (["simulate-ode", "--f0", "-0.5", "--t-final", "1"], ["simulate-ode", "--t-final", "1"], "f0 = -0.5"),
    ], ids=["abbreviation", "equals", "mixed", "negative-value"])
    def test_argparse_forms_write_the_same_csv(self, tmp_path, argv, full, config):
        # Each argv goes to argparse and must write what the table pass writes for the same values.
        slow, fast = tmp_path / "slow.csv", tmp_path / "fast.csv"
        if config is not None:
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(f"[options]\n{config}\n")
            full = [*full, "--config", str(cfg_path)]
        assert _parse_flags(argv) is None and _parse_flags(full) is not None
        assert main([*argv, "--output", str(slow)]) == 0
        assert main([*full, "--output", str(fast)]) == 0
        assert slow.read_bytes() == fast.read_bytes()

    def test_dump_config_matches_the_table_pass(self):
        argv = ["simulate-ode", "--alpha", "2", "--method", "rk45"]
        with redirect_stdout(io.StringIO()) as dumped:
            assert main([*argv, "--dump-config"]) == 0
        expected = io.StringIO()
        resolve_config(_parse_flags(argv)).dump(expected)
        assert dumped.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("argv, code", [
        (["stability", "-h"], 0),
        (["stability", "--alpha"], 2),
        ([], 2),
    ], ids=["help", "missing-value", "no-command"])
    def test_argparse_exits(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert (captured.out if code == 0 else captured.err).startswith("usage: fvw")

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(list(COMMANDS)), data=st.data())
    def test_table_pass_matches_argparse(self, command, data):
        # Whenever the table pass reads an argv, argparse reads it without an error into the same Namespace;
        # repr compares a nan value as equal to itself.
        flag, value = st.sampled_from(value_flags(command) + OTHER_TOKENS), st.sampled_from(VALUE_TOKENS)
        pairs = st.lists(st.tuples(flag, value), max_size=6).map(lambda pairs: [arg for pair in pairs for arg in pair])
        argv = [command, *data.draw(pairs | st.lists(flag | value, max_size=12), label="tokens")]
        fast = _parse_flags(argv)
        if fast is not None:
            assert repr(sorted(vars(fast).items())) == repr(sorted(vars(build_parser().parse_args(argv)).items()))

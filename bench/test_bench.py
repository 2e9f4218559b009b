"""Self-tests of the benchmark (not part of the fvw test suite).

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import worker  # noqa: E402

fvw = worker.import_fvw()

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def spec_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = workloads.input_digest(cls(fvw, 11, str(tmp_path)))
    assert workloads.input_digest(cls(fvw, 11, str(tmp_path))) == first
    assert workloads.input_digest(cls(fvw, 12, str(tmp_path))) != first


def test_metric_names_match_benchmark_json(spec_json):
    assert [w["name"] for w in spec_json["workloads"]] == list(spec.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec_json["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in spec_json["per_layer"]} == spec.PER_LAYER
    # Every per-layer metric comes out of the tracer (the worker adds overhead and the known-defect count).
    assert set(tracer_mod.Tracer().layer_metrics()) | {"trace.overhead_frac", "cli.known_defects"} == set(spec.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_exactly_the_named_metrics(spec_json, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli-batch", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec_json[kind]}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_self_time_on_synthetic_tree():
    t = tracer_mod.Tracer()
    op = t.record("bench.op", 0.0, 10.0, -1)
    b = t.record("stability.find_wavetrain", 1.0, 4.0, op)
    c = t.record("cubic.solve_cubic", 5.0, 9.0, op)
    t.record("model.reaction_rhs", 6.0, 7.0, c)
    t.record("model.reaction_rhs", 7.5, 8.0, c)
    t.record("cubic.solve_cubic", 2.0, 3.0, b)
    assert t.self_times().tolist() == [3.0, 2.0, 2.5, 1.0, 0.5, 1.0]
    m = t.layer_metrics()
    assert m["bench.self_s"] == 3.0
    assert m["stability.self_s"] == 2.0 and m["stability.calls"] == 1
    assert m["cubic.self_s"] == 3.5 and m["cubic.calls"] == 2
    assert m["model.self_s"] == 1.5 and m["model.calls"] == 2
    assert m["trace.spans"] == 6


def _attributes(namespaces):
    seen = {}
    for ns in namespaces:
        for attr, val in vars(ns).items():
            seen[(ns.__name__, attr)] = val
            if isinstance(val, type):
                for meth, fn in vars(val).items():
                    seen[(f"{ns.__name__}.{attr}", meth)] = fn
    return seen


def test_tracer_restores_every_wrapped_function():
    namespaces = [fvw, fvw.model, fvw.cubic, fvw.stability, fvw.simulate, fvw.kernels, fvw.cli]
    before = _attributes(namespaces)
    t = tracer_mod.Tracer()
    t.install(namespaces)
    try:
        assert fvw.stability.solve_cubic is not before[("fvw.stability", "solve_cubic")]
        assert fvw.simulate.reaction_rhs is not before[("fvw.simulate", "reaction_rhs")]
        assert fvw.simulate.solve_ivp is not before[("fvw.simulate", "solve_ivp")]
        assert fvw.kernels.quad is not before[("fvw.kernels", "quad")]
        assert vars(fvw.simulate.Trajectory)["write_csv"] is not before[("fvw.simulate.Trajectory", "write_csv")]
        assert len(t._patches) > 50
        t.on = True
        with t.span("bench.op"):
            fvw.stability.find_wavetrain(fvw.model.ModelParams(2, 1, 1, 1, 0.1, 1, 1, c=1.0, d=1.0))
            with t.paused():
                fvw.kernels.pizzetti_constants(1, 2)
        names = {t.names[i] for i in t.name_of}
        assert {"bench.op", "stability.find_wavetrain", "stability.mode_matrix", "model.jacobian"} <= names
        assert "kernels.pizzetti_constants" not in names
    finally:
        t.uninstall()
    after = _attributes(namespaces)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_error_counted_once_in_the_layer_that_raised(tmp_path):
    t = tracer_mod.Tracer()
    t.install([fvw.stability, fvw.cli])
    t.on = True
    try:
        with pytest.raises(RuntimeError):
            fvw.cli.main(["wavetrain", "--alpha", "2", "--epsilon", "0.1", "--c", "1e-300",
                          "--output", str(tmp_path / "w.csv")])
    finally:
        t.uninstall()
    m = t.layer_metrics()
    assert m["stability.errors"] == 1
    assert m["cli.errors"] == 0


def test_known_defects_are_probes_not_timed_ops(tmp_path):
    wl = workloads.CliBatch(fvw, 5, str(tmp_path))
    assert not any(op.known_defect for op in wl.inputs)
    assert [op.known_defect for op in wl.probes()] == [why for _, why in wl.KNOWN_DEFECTS]
    counts = worker.run_probes(wl)
    assert counts["attempted"] == counts["failed"] == len(wl.KNOWN_DEFECTS)

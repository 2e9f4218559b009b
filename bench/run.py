"""fvw benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analysis-sweep --seed 1 --seconds 25 --trace 0

Each run starts fresh interpreters one after another (never two at once):
SETUP_RUNS that only set up, then one that sets up and measures. Each
worker is single-threaded (BLAS threads pinned to 1). Set-up time is taken
from spawning a set-up-only worker to its READY line, scaled by the
reference kernel timed here just before and just after that worker, and
reported as the median. Timings are scaled to a fixed reference speed (see
speed.py); raw figures are printed beside them.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The lines before it print every metric with its unit
and the run record, which is also written to .bench_out/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import BLAS_THREAD_VARS, END_TO_END, PER_LAYER, SETUP_RUNS, WORKLOADS  # noqa: E402
from speed import REF_S, reference_time  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
KERNEL_SAMPLES = 15  # reference-kernel timings on each side of a set-up


def start_worker(args, env, setup_only: bool):
    """Spawn a worker and wait for READY; returns the process and the set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must lie in (0, 120]")

    began = time.perf_counter()
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"), "PYTHONHASHSEED": "0"}
    setups, kernels = [], []
    reference_time(KERNEL_SAMPLES)  # warm-up
    for _ in range(SETUP_RUNS):
        before = reference_time(KERNEL_SAMPLES)
        proc, setup = start_worker(args, env, setup_only=True)
        finish(proc, RUN_LIMIT_S - (time.perf_counter() - began))
        setups.append(setup)
        kernels.append((before + reference_time(KERNEL_SAMPLES)) / 2)
    proc, _ = start_worker(args, env, setup_only=False)
    out = finish(proc, RUN_LIMIT_S - (time.perf_counter() - began))
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if len(lines) != 1:
        raise SystemExit("worker printed no result")
    res = json.loads(lines[0][len("RESULT "):])
    # Each set-up is scaled by the kernel timed just before and just after it,
    # in this process while no worker runs.
    res["raw_setup_s"] = statistics.median(setups)
    res["setup_s"] = statistics.median(t * REF_S / k for t, k in zip(setups, kernels))
    res["record"]["setup_samples_s"] = setups
    res["record"]["setup_kernel_s"] = kernels

    if args.trace:
        values, units = res["per_layer"], PER_LAYER
    else:
        values, units = res, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = res["failed"] == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  ({'traced half' if args.trace else 'untraced'}: {res['measured_ops']} ops)")
    print(f"  timings at reference speed; raw in brackets (reference kernel median "
          f"{res['ref_ms_median']:.3f} ms, nominal {1e3 * REF_S:g} ms)")
    print(f"  setup_s      {res['setup_s']:.4f} s  [{res['raw_setup_s']:.4f}]  "
          f"(median of {len(setups)} fresh interpreters)")
    print(f"  ops_per_s    {res['ops_per_s']:.4f} 1/s  [{res['raw_ops_per_s']:.4f}]")
    print(f"  op_p50_ms    {res['op_p50_ms']:.4f} ms  [{res['raw_op_p50_ms']:.4f}]")
    print(f"  op_tail_ms   {res['op_tail_ms']:.4f} ms  [{res['raw_op_tail_ms']:.4f}]  (p{res['tail_percentile']:g}, "
          f"{res['tail_beyond']} of {res['measured_ops']} ops beyond)")
    print(f"  fail_frac    {res['fail_frac']:.6f} frac  ({res['failed']} of {res['attempted']} ops)")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:.2f} MB")
    for reason, count in sorted(res["failures"].items()):
        print(f"  failed x{count}: {reason}")
    if res["probes"]["attempted"]:
        print(f"  known defects still present: {res['known_defects']} of {res['probes']['attempted']} probes fail "
              f"(untimed, not in attempted/failed)")
        for reason in sorted(res["probes"]["failures"]):
            print(f"    {reason}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:24s} {values[name]:.6g} {unit}")
    print("run record: " + json.dumps(res["record"]))

    runs_dir = ROOT / ".bench_out" / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**res, "correct": correct, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: import fvw from the checkout's `src`, generate the
workload's inputs from the seed, run one warm-up op, print READY, and then
(unless --setup-only) run the closed measurement loop and print one RESULT
line of JSON. Started by run.py in a fresh interpreter."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
DIGEST_OPS = 64  # outputs of the first ops are hashed into the run record
# An op is scaled by the median of the kernel times after the two ops before it,
# after itself and after the next op: a window centred on the op.
REF_BEFORE, REF_AFTER = 2, 2


def import_fvw():
    src = ROOT / "src"
    if not (src / "fvw" / "__init__.py").is_file():
        raise SystemExit(f"fvw sources not found under {src}")
    sys.path.insert(0, str(src))
    import fvw
    import fvw.cli

    if Path(fvw.__file__).resolve().parent != (src / "fvw").resolve():
        raise SystemExit(f"imported fvw from {fvw.__file__}, not from {src}")
    return fvw


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: run ops back to back for `seconds` of wall time.
    Only the op itself is timed; its oracle check runs after, untraced. The
    reference kernel is timed after every op, and each latency is also scaled
    to the reference speed (see speed.py)."""
    lat = []
    counts = new_counts()
    digest = hashlib.sha256()
    inputs = wl.inputs
    refs = [speed.reference_time() for _ in range(REF_BEFORE)]
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        op = inputs[i % len(inputs)]
        out, reason = None, None
        span = tracer.span("bench.op") if tracer is not None else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                out = wl.run(op)
        except Exception as exc:  # the loop must go on; the failure is counted and reported
            reason = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        lat.append(t1 - t0)
        with tracer.paused() if tracer is not None else nullcontext():
            if reason is None:
                try:
                    reason = wl.check(op, out, i, wl.run)
                except Exception:  # an oracle that cannot decide counts the op as failed
                    reason = "oracle raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
            if reason is None and i < DIGEST_OPS:
                digest.update(wl.digest(op, out))
        refs.append(speed.reference_time())
        if reason is not None:
            tally(counts, op, reason)
        i += 1
    refs += [speed.reference_time() for _ in range(REF_AFTER - 1)]
    window = REF_BEFORE + REF_AFTER
    norm = [t * speed.REF_S / statistics.median(refs[k:k + window]) for k, t in enumerate(lat)]
    return {"lat": lat, "norm": norm, "refs": refs, "attempted": len(lat), **counts, "digest": digest.hexdigest()}


def new_counts() -> dict:
    return {"failed": 0, "failures": Counter()}


def tally(counts: dict, op, reason: str) -> None:
    counts["failed"] += 1
    if getattr(op, "known_defect", ""):
        reason = f"known defect ({op.known_defect}): {reason}"
    counts["failures"][reason] += 1


def run_probes(wl) -> dict:
    """Attempt each of the workload's known-defect probes once, untimed and
    untraced. Their outcome is reported on its own (`known_defects`), not in
    the ops attempted and failed."""
    counts = new_counts()
    probes = wl.probes()
    for i, op in enumerate(probes):
        try:
            reason = wl.check(op, wl.run(op), i, wl.run)
        except Exception as exc:  # the failure is counted and reported
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            tally(counts, op, reason)
    return {"attempted": len(probes), **counts}


def latency_metrics(lat, completed: int, percentile: float, prefix: str = "") -> dict:
    lat = np.asarray(lat)
    tail = float(np.percentile(lat, percentile))
    return {
        prefix + "ops_per_s": completed / float(lat.sum()),
        prefix + "op_p50_ms": 1e3 * float(np.median(lat)),
        prefix + "op_tail_ms": 1e3 * tail,
        prefix + "tail_beyond": int(np.count_nonzero(lat > tail)),
    }


def summarize(wl, runs: list[dict]) -> dict:
    """Metrics of runs[0]; op and failure counts over all runs."""
    first = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    completed = len(first["lat"]) - first["failed"]
    return {
        **latency_metrics(first["norm"], completed, wl.tail_percentile),
        **latency_metrics(first["lat"], completed, wl.tail_percentile, prefix="raw_"),
        "attempted": attempted,
        "failed": failed,
        "measured_ops": len(first["lat"]),
        "tail_percentile": wl.tail_percentile,
        "ref_ms_median": 1e3 * statistics.median(first["refs"]),
        "fail_frac": failed / attempted,
        "failures": dict(sum((r["failures"] for r in runs), Counter())),
        "output_digest": first["digest"],
    }


def filesystem_of(path: str) -> str:
    """Filesystem type and mount point holding `path`, from /proc/self/mountinfo."""
    real = os.path.realpath(path)
    best = ("", "unknown")
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (real == mount or real.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best[0]):
                    best = (mount, right.split()[0])
    except OSError:
        pass
    return f"{best[1]} at {best[0] or '?'}"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args, tmp_dir: str) -> dict:
    import scipy

    from spec import BLAS_THREAD_VARS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the layout of numpy's build info differs between versions
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "csv_tmp_fs": filesystem_of(tmp_dir),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    fvw = import_fvw()
    import workloads
    from tracer import Tracer

    warnings.simplefilter("ignore", fvw.CFLWarning)  # the requested dt is clamped by design
    tmp_dir = str(ROOT / ".bench_out" / f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ[fvw.cli.OUTPUT_DIR_ENV] = tmp_dir
    try:
        wl = workloads.WORKLOADS[args.workload](fvw, args.seed, tmp_dir)
        wl.run(wl.warmup_op())
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            untraced = measure(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install([fvw, fvw.model, fvw.cubic, fvw.stability, fvw.simulate, fvw.kernels, fvw.cli])
            tracer.on = True
            try:
                traced = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            result = summarize(wl, [traced, untraced])
            # Layer times are scaled to the reference speed by the traced phase's median kernel time.
            scale = speed.REF_S / statistics.median(traced["refs"])
            layers = {k: v * scale if k.endswith(("_s", "us_per_step")) else v
                      for k, v in tracer.layer_metrics().items()}
            layers["trace.overhead_frac"] = summarize(wl, [untraced])["ops_per_s"] / result["ops_per_s"] - 1.0
            result["per_layer"] = layers
        else:
            result = summarize(wl, [measure(wl, args.seconds)])
        probes = run_probes(wl)
        result["known_defects"] = probes["failed"]
        result["probes"] = {"attempted": probes["attempted"], "failures": dict(probes["failures"])}
        if args.trace:
            result["per_layer"]["cli.known_defects"] = probes["failed"]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["input_digest"] = workloads.input_digest(wl)
        result["record"] = run_record(args, tmp_dir)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Names and units of the metrics the benchmark reports; BENCHMARK.json at the
repository root lists the same names (a self-test checks that they agree)."""

WORKLOADS = ("analysis-sweep", "ode-ensemble", "pde-pattern", "cli-batch")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_LAYER_UNITS = {"calls": "count", "self_s": "s", "errors": "count"}
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in ("cubic", "stability", "model", "simulate", "kernels", "cli", "scipy")
       for m, u in _LAYER_UNITS.items()},
    "bench.self_s": "s",
    "simulate.rhs_evals": "count",
    "simulate.rk4_steps": "count",
    "simulate.us_per_step": "us",
    "simulate.csv_s": "s",
    "simulate.csv_bytes": "B",
    "cli.csv_bytes": "B",
    "cli.known_defects": "count",
    "kernels.integrand_evals": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}

# Setup is measured this many times per run (fresh interpreters) and reported as the median.
SETUP_RUNS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

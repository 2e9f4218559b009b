"""Span tracer for the benchmark's traced run.

The tracer replaces functions with timing wrappers by patching module and
class attributes; fvw itself is not modified. Every call of a wrapped
function records one span (name, start, end, parent span). Spans are kept in
flat arrays in memory until the run ends and are only then reduced to
per-layer totals. A layer is the fvw module that defines a function
(`cubic`, `stability`, ...), `scipy` for the scipy entry points fvw imports
by name, and `bench` for the benchmark's own op spans.

Self time is a span's duration minus the durations of its direct children.
The program is single-threaded, so child spans are disjoint and lie inside
their parent.
"""

from __future__ import annotations

import inspect
import math
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cubic", "stability", "model", "simulate", "kernels", "cli", "scipy", "bench")

# Public CSV writers of `simulate`; each takes the output file as `path`.
SIMULATE_WRITERS = ("simulate.write_snapshots_csv", "simulate.Trajectory.write_csv", "simulate.FieldState.write_csv")
PDE_RHS_EVALS_PER_STEP = 4  # classical RK4; the PDE right-hand side is a closure, not wrappable


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error_spans = array("i")
        self.counters = {"simulate.rk4_steps": 0, "simulate.pde_steps": 0, "simulate.rk4_s": 0.0,
                         "simulate.csv_bytes": 0, "cli.csv_bytes": 0, "kernels.integrand_evals": 0}
        self.on = False
        self._stack = [-1]
        self._last_exc = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def _error(self, idx: int, exc: BaseException) -> None:
        # Count an exception once, in the innermost span it left.
        if exc is not self._last_exc:
            self.error_spans.append(idx)
            self._last_exc = exc

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span directly (used by tests on synthetic trees)."""
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    @contextmanager
    def span(self, name: str):
        """Span around the benchmark's own code, such as one op."""
        if not self.on:
            yield
            return
        idx = self._open(self._name_id(name))
        try:
            yield
        except BaseException as exc:
            self._error(idx, exc)
            raise
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run fvw calls (oracle checks, reruns) without recording them."""
        was_on, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was_on

    def wrap(self, fn, name: str, after=None, arg_hook=None):
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if arg_hook is not None:
                args, kwargs = arg_hook(args, kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(idx, exc)
                tracer._close(idx)
                raise
            elapsed = tracer._close(idx)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installing ------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, namespaces) -> None:
        """Wrap the public functions and public class methods of each namespace,
        the names other fvw modules imported from it, and the scipy functions
        fvw imports by name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val):
                    name = self._function_name(val)
                    if name is not None:
                        self._patch(ns, attr, self.wrap(val, name, *self._hooks(name, val)))
                elif inspect.isclass(val) and val.__module__ == ns.__name__:
                    layer = val.__module__.split(".")[-1]
                    for meth, fn in list(vars(val).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            name = f"{layer}.{val.__name__}.{meth}"
                            self._patch(val, meth, self.wrap(fn, name, *self._hooks(name, fn)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.on = False

    @staticmethod
    def _function_name(fn) -> str | None:
        module = fn.__module__ or ""
        if module.startswith("fvw."):
            return f"{module.split('.')[1]}.{fn.__name__}"
        if module.startswith("scipy."):
            return f"scipy.{fn.__name__}"
        return None

    def _hooks(self, name: str, fn):
        """(after, arg_hook) for wrappers that also record counts."""
        counters = self.counters
        sig = inspect.signature(fn)

        def arg(args, kwargs, param):
            return sig.bind(*args, **kwargs).arguments[param]

        if name in SIMULATE_WRITERS:
            def after(args, kwargs, result, elapsed):
                counters["simulate.csv_bytes"] += os.path.getsize(arg(args, kwargs, "path"))

            return after, None
        if name == "cli.run":  # runs one subcommand, which writes config.output
            def after(args, kwargs, result, elapsed):
                counters["cli.csv_bytes"] += os.path.getsize(arg(args, kwargs, "config").output)

            return after, None
        if name == "simulate.integrate_ode":
            def after(args, kwargs, result, elapsed):
                cfg = arg(args, kwargs, "cfg")
                if cfg.method == "rk4":
                    counters["simulate.rk4_steps"] += max(1, math.ceil(cfg.t_final / cfg.dt))
                    counters["simulate.rk4_s"] += elapsed

            return after, None
        if name == "simulate.simulate_pde":
            def after(args, kwargs, result, elapsed):
                bound = sig.bind(*args, **kwargs).arguments
                cfl_bound = inspect.unwrap(fn.__globals__["cfl_bound"])
                steps = pde_rk4_steps(bound["field0"], bound["p"], bound["cfg"], bound["snapshot_times"], cfl_bound)
                counters["simulate.rk4_steps"] += steps
                counters["simulate.pde_steps"] += steps
                counters["simulate.rk4_s"] += elapsed

            return after, None
        if name == "scipy.quad":
            def arg_hook(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                func = bound.arguments["func"]

                def counted(*a):
                    counters["kernels.integrand_evals"] += 1
                    return func(*a)

                bound.arguments["func"] = counted
                return bound.args, bound.kwargs

            return None, arg_hook
        return None, None

    # -- reducing --------------------------------------------------------
    def arrays(self):
        # Copies, so that no numpy view pins the growable arrays.
        name_of = np.frombuffer(self.name_of, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return name_of, parent, dur

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of direct children."""
        _, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and errors, plus the counters."""
        name_of, _, dur = self.arrays()
        self_t = self.self_times()
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        span_layer = layer_of_name[name_of]
        calls = np.bincount(span_layer, minlength=len(LAYERS))
        self_s = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))
        err_layer = span_layer[np.frombuffer(self.error_spans, dtype=np.int32).copy()]
        errors = np.bincount(err_layer, minlength=len(LAYERS))
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            if layer != "bench":
                out[f"{layer}.calls"] = int(calls[i])
                out[f"{layer}.errors"] = int(errors[i])
            out[f"{layer}.self_s"] = float(self_s[i])
        writer_ids = [self._name_ids[n] for n in SIMULATE_WRITERS if n in self._name_ids]
        out["simulate.csv_s"] = float(dur[np.isin(name_of, writer_ids)].sum())
        rhs_id = self._name_ids.get("model.reaction_rhs")
        ode_rhs = int(np.count_nonzero(name_of == rhs_id)) if rhs_id is not None else 0
        out["simulate.rhs_evals"] = ode_rhs + PDE_RHS_EVALS_PER_STEP * self.counters["simulate.pde_steps"]
        steps = self.counters["simulate.rk4_steps"]
        out["simulate.rk4_steps"] = steps
        out["simulate.us_per_step"] = 1e6 * self.counters["simulate.rk4_s"] / steps if steps else 0.0
        out["simulate.csv_bytes"] = self.counters["simulate.csv_bytes"]
        out["cli.csv_bytes"] = self.counters["cli.csv_bytes"]
        out["kernels.integrand_evals"] = self.counters["kernels.integrand_evals"]
        out["trace.spans"] = len(dur)
        return out


def pde_rk4_steps(field0, p, cfg, snapshot_times, cfl_bound) -> int:
    """RK4 steps `simulate_pde` takes, from the clamped dt and the snapshot spans."""
    h = field0.domain_length / field0.grid_points
    dt = min(cfg.dt, cfl_bound(h, p))
    t = field0.time
    steps = 0
    for target in sorted(float(x) for x in snapshot_times):
        span = target - t
        if span > 0:
            steps += max(1, math.ceil(span / dt))
        t = target
    return steps

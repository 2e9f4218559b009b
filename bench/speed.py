"""Machine-speed normalisation of timings.

The benchmark runs on shared hosts whose speed drifts by 20-40 % over
seconds as other tenants load them: a fixed pure-Python loop timed back to
back shows it, pinned to either CPU. Medians over a 25 s run do not average
that out. So every bounded timing is reported at a fixed reference speed: it
is multiplied by REF_S / r, where r is the time the fixed reference kernel
below took next to it. Code of different kinds slows by different factors,
so the kernel mixes the kinds fvw runs. A program change moves the op's time
and not the kernel's, so the scaled figure moves by the same factor; the raw
figures are printed next to it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_S = 1e-3  # timings are scaled to a machine on which the kernel takes 1 ms
_GRID = 1024


def _step(x: float, y: float) -> tuple[float, float]:
    return x * 1.000001 + y, y * 0.999999 - x * 1e-6


def reference_kernel() -> None:
    """Fixed work in the three styles fvw's ops use, in equal parts: interpreted
    float arithmetic (cubic, stability), numpy scalars and 3-vectors (the ODE
    right-hand side), and whole-array stencils on 1024 points (the PDE)."""
    x, y = 0.5, 0.25
    for _ in range(800):
        x, y = _step(x, y)
    state = np.array([0.5, 0.25, 0.75])
    for _ in range(60):
        f, v, w = state
        state = np.asarray((f * 1.000001 + v, v * 0.999999 - f * 1e-6, w * 0.9999 + 1e-4)) * 1.0
    u = np.linspace(0.0, 1.0, _GRID)
    for _ in range(35):
        u = (np.roll(u, 1) + np.roll(u, -1) - 2.0 * u) * 1e-3 + u


def reference_time(samples: int = 1) -> float:
    """Median wall time of `samples` back-to-back runs of the reference kernel."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)

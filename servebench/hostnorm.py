"""Host normalization: a fixed probe kernel interleaved with the workload.

The serving loop's speed on a small shared host drifts by tens of percent
over seconds to minutes, and it drifts for every process alike. A raw
wall-clock rate therefore does not repeat from one run to the next, however
long the run. This module measures the drift and divides it out:

* :func:`probe_kernel` is a fixed piece of work with the serving loop's
  profile — interpreter dispatch mixed with small NumPy calls. It lives in
  the benchmark, so no change to the program under test can change it.
* :class:`HostMeter` runs the probe in short slices between slices of the
  workload, so probe and workload sample the same phases of the host.
* Each workload slice is scaled by ``REFERENCE_PROBE_S / probe_s``, where
  ``probe_s`` is the median of the probe slices around it. The result is a
  time in *reference seconds*: how long the slice would have taken while the
  host ran the probe at the reference speed.

Raw times and every probe reading stay in the output, so the normalization
can be redone from the result alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe iterations per pass. A probe slice (one untimed and one timed
#: pass) takes 1-1.5 ms on a 2-CPU Xeon VM; a workload slice is ~30-50x
#: longer, so probing costs ~3% of the run.
PROBE_ITERS = 30
#: rows of the probe's 128-column float64 table (4 MiB)
TABLE_ROWS = 4096
#: Seconds one timed probe pass takes at the reference speed (a typical
#: median on a 2-CPU Xeon VM, Python 3.11, NumPy 2.4, one BLAS thread). A
#: constant: changing it rescales every normalized time, so it stays fixed.
REFERENCE_PROBE_S = 0.7e-3
#: Probe slices on each side of a workload slice that its scale is taken
#: from. A median over a few neighbours ignores a single interrupted probe
#: and still follows drift on the scale of a second.
SMOOTH_HALF_WIDTH = 2


class _ProbeState:
    """Fixed operands for :func:`probe_kernel` (built once per meter)."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        #: 4 MiB table: gathers from it leave the core's private caches, as
        #: the serving loop's table lookups do
        self.table = rng.standard_normal((TABLE_ROWS, 128))
        self.rows0 = rng.integers(0, TABLE_ROWS, 64)
        self.rows = self.rows0.copy()
        self.block = np.empty((64, 128))
        self.x = rng.standard_normal((16, 8))
        self.p = rng.standard_normal((8, 64))
        self.dist = np.empty((16, 64))
        self.keys = list(range(16))


def probe_kernel(state: _ProbeState, iters: int) -> int:
    """The fixed probe: per iteration a 64-row gather from a 4 MiB table, a
    small GEMM, two argmins, an in-place index update and a little dict
    work — small NumPy calls driven by the interpreter, touching memory the
    way table lookups do. Returns a checksum so the work cannot be skipped.
    """
    acc = 0
    table, rows, block = state.table, state.rows, state.block
    rows[:] = state.rows0  # every pass walks the same rows
    x, p, dist, keys = state.x, state.p, state.dist, state.keys
    for i in range(iters):
        np.take(table, rows, axis=0, out=block)
        np.dot(x, p, out=dist)
        codes = dist.argmin(axis=1)
        acc += int(block.argmax()) + int(codes[i & 15])
        np.multiply(rows, 7, out=rows)
        np.add(rows, 13, out=rows)
        np.remainder(rows, TABLE_ROWS, out=rows)
        counts: dict[int, int] = {}
        for k in keys:
            j = (k * 7 + i) & 7
            counts[j] = counts.get(j, 0) + 1
        acc += len(counts)
    return acc


class HostMeter:
    """Interleaves probe slices with workload slices and normalizes them.

    Call :meth:`probe` once before the first workload slice and once after
    each. Record each workload slice with :meth:`add_slice`. After the run,
    :meth:`scales` gives one factor per slice (apply it to every time taken
    in that slice) and :meth:`normalize` applies them to the slice times.
    """

    def __init__(self, iters: int = PROBE_ITERS, reference_s: float = REFERENCE_PROBE_S):
        self.iters = int(iters)
        self.reference_s = float(reference_s)
        self._state = _ProbeState()
        #: seconds of each timed probe pass, in run order
        self.probes: list[float] = []
        #: raw seconds per workload slice, in run order
        self.slices: list[float] = []
        #: wall seconds spent probing (both passes)
        self.probe_total_s = 0.0
        self._sink = 0

    def probe(self) -> float:
        """One untimed pass (refills the caches the workload evicted, so the
        reading does not depend on the workload's footprint), then one
        timed pass. Returns the timed seconds."""
        t_start = time.perf_counter()
        self._sink ^= probe_kernel(self._state, self.iters)
        t0 = time.perf_counter()
        self._sink ^= probe_kernel(self._state, self.iters)
        dt = time.perf_counter() - t0
        self.probes.append(dt)
        self.probe_total_s += time.perf_counter() - t_start
        return dt

    def add_slice(self, seconds: float) -> int:
        """Record one workload slice; returns its index."""
        self.slices.append(float(seconds))
        return len(self.slices) - 1

    def scales(self) -> list[float]:
        return slice_scales(self.probes, len(self.slices), self.reference_s)

    def normalize(self, values: list[float]) -> list[float]:
        """Scale one value per slice to reference seconds."""
        return [v * s for v, s in zip(values, self.scales())]

    def summary(self) -> dict:
        """Probe diagnostics for the result stamp."""
        med = statistics.median(self.probes) if self.probes else 0.0
        return {
            "iters": self.iters,
            "reference_s": self.reference_s,
            "reference_rate_per_s": 1.0 / self.reference_s,
            "measured_median_s": med,
            "measured_rate_per_s": (1.0 / med) if med else 0.0,
            "probes": len(self.probes),
            "probe_min_s": min(self.probes) if self.probes else 0.0,
            "probe_max_s": max(self.probes) if self.probes else 0.0,
            "overhead_s": self.probe_total_s,
        }


def slice_scales(probes: list[float], n_slices: int, reference_s: float,
                 half_width: int = SMOOTH_HALF_WIDTH) -> list[float]:
    """Scale factor for each workload slice.

    Slice ``i`` ran between probe ``i`` and probe ``i + 1``. Its host speed
    is the median of the probes from ``i - half_width`` to
    ``i + 1 + half_width`` (clipped to the run), and its scale is
    ``reference_s`` over that median.
    """
    if n_slices and len(probes) < n_slices + 1:
        raise ValueError(f"{n_slices} slices need {n_slices + 1} probes, got {len(probes)}")
    out = []
    for i in range(n_slices):
        lo = max(0, i - half_width)
        hi = min(len(probes), i + 2 + half_width)
        out.append(reference_s / statistics.median(probes[lo:hi]))
    return out

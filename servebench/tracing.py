"""In-memory spans recorded around calls into the program's public functions.

The traced run builds the engines around timing wrappers: a proxy model whose
``predict_proba`` and ``fast_path().query_into`` open spans, and decode
callables swapped in for the duration of the run. Nothing under ``src/`` is
edited; the wrappers only time what the engines already call.

A span is ``(name, start, end, parent, rows)``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``rows`` the batch rows the call
answered (``0`` where that does not apply).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    """Span recorder with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def reset(self) -> None:
        if self.stack:
            raise RuntimeError("cannot reset with open spans")
        self.spans = []

    def call(self, name: str, fn, *args, rows: int = 0, **kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, rows)

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return timed

    def write(self, path) -> None:
        """One JSON object per line: name, start, end, parent, rows."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, rows in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "rows": rows}) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [t1 - t0 for _, t0, t1, _, _ in spans]
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def summarize(spans: list) -> dict:
    """Per span name: count, total and self seconds, rows, and how many of
    its spans had no children."""
    selfs = self_times(spans)
    has_child = [False] * len(spans)
    for _, _, _, parent, _ in spans:
        if parent >= 0:
            has_child[parent] = True
    agg: dict = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0,
                                     "leaf_count": 0, "leaf_total_s": 0.0})
    for i, (name, t0, t1, _, rows) in enumerate(spans):
        a = agg[name]
        a["count"] += 1
        a["total_s"] += t1 - t0
        a["self_s"] += selfs[i]
        a["rows"] += rows
        if not has_child[i]:
            a["leaf_count"] += 1
            a["leaf_total_s"] += t1 - t0
    return dict(agg)


def root_seconds(spans: list) -> float:
    return sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent < 0)


class TimedFastPath:
    """A ``SingleQueryFastPath`` whose ``query_into`` opens a span."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.t_hist = inner.t_hist
        self.bitmap_size = inner.bitmap_size

    def query_into(self, x_addr, x_pc, out):
        return self._tracer.call("tabularization.query1", self._inner.query_into,
                                 x_addr, x_pc, out, rows=1)


class TimedModel:
    """Proxy over a ``TabularAttentionPredictor`` for the traced run.

    The flush path finds the single-query plan through ``predict_proba``'s
    owner (``predict_proba.__self__.fast_path()``), so the proxy exposes both
    and every other attribute falls through to the real model.
    """

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer
        self._fast = None

    def predict_proba(self, x_addr, x_pc, batch_size: int = 512, out=None):
        return self._tracer.call("tabularization.predict", self._model.predict_proba,
                                 x_addr, x_pc, batch_size=batch_size, out=out,
                                 rows=int(x_addr.shape[0]))

    def fast_path(self):
        if self._fast is None:
            self._fast = TimedFastPath(self._model.fast_path(), self._tracer)
        return self._fast

    def __getattr__(self, name):
        return getattr(self._model, name)


@contextlib.contextmanager
def timed_decoders(tracer: Tracer):
    """Swap timed decode callables into the flush path's module for the
    duration of the block. Engines built inside the block pick them up."""
    import repro.runtime.microbatch as mb

    plain_decode = mb.decode_bitmap_probs
    plain_row = mb.SingleRowDecoder

    def decode_bitmap_probs(probs, anchors, *args, **kwargs):
        return tracer.call("prefetch.decode", plain_decode, probs, anchors, *args,
                           rows=int(probs.shape[0]), **kwargs)

    class TimedRowDecoder(plain_row):
        def decode1(self, probs_row, anchor):
            return tracer.call("prefetch.decode1", plain_row.decode1, self, probs_row,
                               anchor, rows=1)

    mb.decode_bitmap_probs = decode_bitmap_probs
    mb.SingleRowDecoder = TimedRowDecoder
    try:
        yield
    finally:
        mb.decode_bitmap_probs = plain_decode
        mb.SingleRowDecoder = plain_row

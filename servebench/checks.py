"""Correctness gate and summary statistics for the serving benchmark.

:func:`check_stream` compares what one stream delivered against the batch
oracle (``DARTPrefetcher.prefetch_lists`` on the same accesses). An access
fails when its emission is missing, delivered twice, delivered out of
order, or differs from the oracle's list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class StreamCheck:
    """Verdict for one stream: accesses attempted and the failed seqs."""

    attempted: int
    #: seq -> reason, for every failed access (and any stray seq delivered)
    failures: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def first(self):
        """The lowest failed seq and its reason, or ``None``."""
        if not self.failures:
            return None
        seq = min(self.failures)
        return seq, self.failures[seq]


def check_stream(delivered: list, expected: list) -> StreamCheck:
    """Check ``delivered`` (``(seq, blocks)`` pairs in delivery order)
    against ``expected`` (the oracle's list per access, one per access
    served)."""
    n = len(expected)
    out = StreamCheck(attempted=n)
    fail = out.failures
    seen = [0] * n
    last = -1
    for seq, blocks in delivered:
        if not 0 <= seq < n:
            fail.setdefault(seq, "emission for an access that was never served")
            continue
        if seen[seq]:
            fail.setdefault(seq, "duplicated")
        elif seq < last:
            fail.setdefault(seq, f"out of order (after seq {last})")
        seen[seq] += 1
        last = max(last, seq)
        if list(blocks) != expected[seq]:
            fail.setdefault(seq, f"differs from oracle: got {list(blocks)}, "
                                 f"want {expected[seq]}")
    for seq in range(n):
        if not seen[seq]:
            fail.setdefault(seq, "missing")
    return out


def delivered_lists(delivered: list, n: int) -> list[list[int]]:
    """Per-access prefetch lists from delivered emissions (last one wins)."""
    lists: list[list[int]] = [[] for _ in range(n)]
    for seq, blocks in delivered:
        if 0 <= seq < n:
            lists[seq] = list(blocks)
    return lists


def percentile(samples: list[float], q: float) -> dict:
    """Nearest-rank percentile with its support.

    Returns the value, the sample count, and how many samples lie strictly
    beyond the value — the count that says whether the percentile rests on
    enough tail samples to repeat.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    s = sorted(samples)
    n = len(s)
    value = s[max(0, math.ceil(q * n) - 1)]
    beyond = n - _upper_bound(s, value)
    return {"value": value, "samples": n, "beyond": beyond}


def _upper_bound(s: list[float], value: float) -> int:
    lo, hi = 0, len(s)
    while lo < hi:
        mid = (lo + hi) // 2
        if s[mid] <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def merge_scores(scores: list[dict]) -> dict:
    """Pool per-stream ``score_prefetch_lists`` results (sums, not means)."""
    issued = sum(s["issued"] for s in scores)
    accurate = sum(s["accurate"] for s in scores)
    accesses = sum(s["accesses"] for s in scores)
    covered = sum(round(s["coverage"] * s["accesses"]) for s in scores)
    return {
        "accesses": accesses,
        "issued": issued,
        "accurate": accurate,
        "accuracy": accurate / issued if issued else 0.0,
        "coverage": covered / accesses if accesses else 0.0,
    }

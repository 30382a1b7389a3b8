"""Tests of the benchmark's own helpers (no model build; runs in seconds)."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from servebench import checks, hostnorm, tracing, workloads  # noqa: E402

EXPECTED = [[], [], [10, 11], [12], [], [13, 14]]


def _clean():
    return [(i, list(b)) for i, b in enumerate(EXPECTED)]


# ------------------------------------------------------------------ oracle
def test_oracle_comparator_passes_exact_delivery():
    v = checks.check_stream(_clean(), EXPECTED)
    assert (v.attempted, v.failed, v.first()) == (6, 0, None)


def test_oracle_comparator_flags_dropped_emission():
    got = [e for e in _clean() if e[0] != 3]
    v = checks.check_stream(got, EXPECTED)
    assert v.failed == 1 and v.first() == (3, "missing")


def test_oracle_comparator_flags_duplicated_emission():
    got = _clean()
    got.insert(3, (2, [10, 11]))
    v = checks.check_stream(got, EXPECTED)
    assert v.failed == 1 and v.first() == (2, "duplicated")


def test_oracle_comparator_flags_reordered_emission():
    got = _clean()
    got[3], got[4] = got[4], got[3]  # seq 4 delivered before seq 3
    v = checks.check_stream(got, EXPECTED)
    assert v.failed == 1
    seq, why = v.first()
    assert seq == 3 and why.startswith("out of order")


def test_oracle_comparator_flags_altered_emission():
    got = _clean()
    got[5] = (5, [13, 15])
    v = checks.check_stream(got, EXPECTED)
    assert v.failed == 1
    seq, why = v.first()
    assert seq == 5 and why.startswith("differs from oracle")


def test_oracle_comparator_flags_emission_for_unserved_access():
    v = checks.check_stream(_clean() + [(9, [])], EXPECTED)
    assert v.failed == 1 and v.first()[0] == 9


# -------------------------------------------------------------- percentile
def test_percentile_reports_samples_and_tail_support():
    samples = [float(i) for i in range(1, 1001)]  # 1..1000
    p99 = checks.percentile(samples, 0.99)
    assert p99 == {"value": 990.0, "samples": 1000, "beyond": 10}
    p50 = checks.percentile(list(reversed(samples)), 0.50)
    assert p50 == {"value": 500.0, "samples": 1000, "beyond": 500}


def test_percentile_counts_ties_at_the_value_as_not_beyond():
    p = checks.percentile([1.0, 2.0, 2.0, 2.0, 3.0], 0.5)
    assert p == {"value": 2.0, "samples": 5, "beyond": 1}


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        checks.percentile([], 0.5)
    with pytest.raises(ValueError):
        checks.percentile([1.0], 0.0)


# ---------------------------------------------------------- normalization
def test_scales_are_reference_over_local_probe_median():
    # Host twice as slow as the reference throughout: every slice halves.
    sc = hostnorm.slice_scales([2e-3] * 5, 4, reference_s=1e-3)
    assert sc == pytest.approx([0.5] * 4)


def test_scales_follow_a_host_phase_change_and_ignore_one_outlier():
    probes = [1e-3] * 6 + [2e-3] * 6
    probes[2] = 50e-3  # one interrupted probe
    sc = hostnorm.slice_scales(probes, 11, reference_s=1e-3, half_width=2)
    assert sc[0] == pytest.approx(1.0) and sc[1] == pytest.approx(1.0)
    assert sc[-1] == pytest.approx(0.5)


def test_normalize_scales_each_slice_by_its_local_probe_median():
    m = hostnorm.HostMeter(iters=1, reference_s=1e-3)
    m.probes = [2e-3] * 3 + [4e-3] * 3
    m.slices = [0.1] * 5
    sc = m.scales()
    assert [0.2 * sc[0], 0.2 * sc[4]] == pytest.approx([0.1, 0.05])
    total = sum(m.normalize(m.slices))
    # slices 0-1 see a 2 ms probe median, 2 sits on the boundary (mean of
    # the middle pair: 3 ms), 3-4 see 4 ms.
    assert total == pytest.approx(0.1 * (0.5 + 0.5 + 1 / 3 + 0.25 + 0.25))


def test_scales_need_a_probe_on_each_side_of_every_slice():
    with pytest.raises(ValueError):
        hostnorm.slice_scales([1e-3, 1e-3], 2, reference_s=1e-3)


def test_probe_kernel_is_deterministic():
    st = hostnorm._ProbeState()
    assert hostnorm.probe_kernel(st, 20) == hostnorm.probe_kernel(hostnorm._ProbeState(), 20)


# ------------------------------------------------------------ interleaving
class _FakeDart:
    """Stands in for ``DARTPrefetcher``: a multistream engine over a cheap,
    deterministic, row-local predictor."""

    def __init__(self):
        from repro.data import PreprocessConfig

        self.config = PreprocessConfig(history_len=4, delta_range=8)

    @staticmethod
    def predict(x_addr, x_pc, batch_size=64, out=None):
        n = x_addr.shape[0]
        probs = np.zeros((n, 16)) if out is None else out
        probs[:] = 0.0
        col = (x_addr[:, -1, :].sum(axis=1) + x_pc[:, -2, :].sum(axis=1)).astype(np.int64) % 16
        probs[np.arange(n), col] = 0.9
        return probs

    def multistream(self, batch_size, max_wait):
        from repro.runtime import MultiStreamEngine

        return MultiStreamEngine(self.predict, self.config, batch_size=batch_size,
                                 max_wait=max_wait)


def _lists(n_streams, n):
    rng = np.random.default_rng(7)
    return [(rng.integers(0x400000, 0x400100, n).tolist(),
             (rng.integers(0, 1 << 20, n) * 64).tolist()) for _ in range(n_streams)]


def _recording_driver(seed, lists):
    d = workloads.B32Multi(_FakeDart(), lists, seed)
    order = []

    def rec(s, f):
        def ingest(pc, addr):
            order.append((s, pc, addr))
            return f(pc, addr)
        return ingest

    d.ingests = [rec(s, f) for s, f in enumerate(d.ingests)]
    return d, order


class _NoProbe(hostnorm.HostMeter):
    def probe(self):
        self.probes.append(1e-3)
        return 1e-3


def test_probe_slices_leave_access_order_and_emissions_unchanged():
    lists = _lists(workloads.B32_STREAMS, 4000)
    probed, order_p = _recording_driver(3, lists)
    workloads.measure(probed, hostnorm.HostMeter(iters=5), 0.05, slice_accesses=16)
    plain, order_q = _recording_driver(3, lists)
    workloads.measure(plain, _NoProbe(), 0.0, slice_accesses=len(order_p))
    n = len(order_p)
    assert order_q[:n] == order_p
    sched = workloads.b32_schedule(3)
    assert [s for s, _, _ in order_p] == [next(sched) for _ in range(n)]
    # Probed run delivered exactly what the plain run delivered for the
    # same accesses (both ended with a flush, so everything arrived).
    for s in range(workloads.B32_STREAMS):
        served = probed.pos[s]
        assert [e for e in probed.got[s]] == [e for e in plain.got[s] if e[0] < served]
        assert len(probed.got[s]) == served


# ---------------------------------------------------------------- tracing
def test_self_time_subtracts_direct_children():
    spans = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 1), ("b", 2.0, 3.0, 1, 1),
             ("c", 5.0, 6.0, 0, 1)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert tracing.root_seconds(spans) == pytest.approx(10.0)
    agg = tracing.summarize(spans)
    assert agg["a"]["leaf_count"] == 0 and agg["b"]["leaf_count"] == 1


def test_tracer_nests_calls():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    assert t.call("outer", lambda: inner(1)) == 2
    (n0, _, _, p0, _), (n1, _, _, p1, _) = t.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)

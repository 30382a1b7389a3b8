"""The multi-tenant contention world: slots, pollution, attribution."""

import pytest

from repro.runtime import AdmissionConfig, AdmissionController, Emission
from repro.runtime.streaming import StreamingPrefetcher
from repro.sim import (
    TENANT_ADDRESS_STRIDE,
    ContentionConfig,
    Interconnect,
    LevelConfig,
    PoisonedStream,
    simulate_contention,
    tenant_of,
)
from repro.traces import make_workload
from repro.utils.bits import BLOCK_BITS

BLOCK = 1 << BLOCK_BITS


def tiny_traces(n=2, length=600, seed=7):
    scale = max(length / 348_000, 0.005) * 1.1
    return [
        make_workload("462.libquantum", scale=scale, seed=seed + i).slice(0, length)
        for i in range(n)
    ]


class NextBlocksStream(StreamingPrefetcher):
    """Deterministic next-line predictor (degree 2) for world tests."""

    def __init__(self, degree=2):
        self.degree = degree
        self.name = "nextblocks"
        self.latency_cycles = 0.0
        self.storage_bytes = 0
        self.seq = 0

    def ingest(self, pc, addr):
        seq = self.seq
        self.seq += 1
        blk = addr >> BLOCK_BITS
        return [Emission(seq, [blk + j + 1 for j in range(self.degree)])]

    def flush(self):
        return []

    def reset(self):
        self.seq = 0


# ------------------------------------------------------------ interconnect
def test_interconnect_serializes_per_cycle():
    ic = Interconnect(1, 2)
    assert ic.grant(0.0, 0) == 0.0
    assert ic.grant(0.0, 1) == 1.0  # second request in cycle 0 waits a cycle
    assert ic.grant(0.0, 1) == 2.0
    assert ic.grant(5.0, 0) == 5.0  # idle gap: the cursor jumps forward
    assert ic.demand_wait[1] == pytest.approx(3.0)
    assert ic.demand_grants == [2, 2]


def test_interconnect_two_slots_per_cycle():
    ic = Interconnect(2, 1)
    assert ic.grant(0.0, 0) == 0.0
    assert ic.grant(0.0, 0) == 0.0
    assert ic.grant(0.0, 0) == 1.0


def test_interconnect_attributes_prefetch_traffic():
    ic = Interconnect(1, 2)
    ic.grant(0.0, 0, prefetch=True)
    ic.grant(0.0, 1, prefetch=False)
    s = ic.stats()
    assert s["prefetch_grants"] == [1, 0]
    assert s["demand_grants"] == [0, 1]


# ----------------------------------------------------------------- config
def test_config_validation():
    with pytest.raises(ValueError, match="prefetch_level"):
        ContentionConfig(prefetch_level="llc")
    with pytest.raises(ValueError):
        ContentionConfig(slots_per_cycle=0)
    with pytest.raises(ValueError, match="one stream slot"):
        simulate_contention(tiny_traces(2), streams=[None])
    with pytest.raises(ValueError, match="at least one"):
        simulate_contention([])


# ------------------------------------------------------------------ world
def test_tenant_address_spaces_are_disjoint():
    traces = tiny_traces(3)
    res = simulate_contention(traces)
    assert len(res.tenants) == 3
    assert tenant_of(5 + 2 * TENANT_ADDRESS_STRIDE) == 2
    # Demand L2 traffic adds up to the shared totals.
    assert sum(t.l2.accesses for t in res.tenants) == res.l2.accesses
    assert sum(t.l2.misses for t in res.tenants) == res.l2.misses


def test_simulation_is_deterministic():
    traces = tiny_traces(2)
    a = simulate_contention(traces, [NextBlocksStream(), None])
    b = simulate_contention(traces, [NextBlocksStream(), None])
    assert [t.sim.cycles for t in a.tenants] == [t.sim.cycles for t in b.tenants]
    assert a.pollution == b.pollution
    assert a.summary() == b.summary()


def test_prefetching_tenant_beats_no_prefetch_self():
    traces = tiny_traces(1, length=2000)
    base = simulate_contention(traces)
    pf = simulate_contention(traces, [NextBlocksStream()])
    assert pf.tenants[0].sim.ipc > base.tenants[0].sim.ipc
    assert pf.tenants[0].sim.prefetches_issued > 0
    assert pf.tenants[0].sim.prefetches_useful > 0


def test_pollution_matrix_attributes_aggressor_to_victim():
    """A poisoned tenant's prefetch fills must show up as cross-tenant
    evictions attributed to it — and the diagonal stays empty."""
    traces = tiny_traces(3, length=1500)
    # Tiny shared L2 so garbage fills must evict other tenants' lines.
    cfg = ContentionConfig(l2=LevelConfig(32 * 1024, 4, 12.0, policy="plru"))
    streams = [PoisonedStream(NextBlocksStream(), degree=8), None, None]
    res = simulate_contention(traces, streams, cfg)
    assert res.inflicted(0) > 0
    assert all(res.pollution[a][a] == 0 for a in range(3))
    # Victims suffered from tenant 0, not from each other's (absent) prefetches.
    assert res.suffered(1) + res.suffered(2) == res.inflicted(0)
    assert res.pollution[1] == [0, 0, 0] and res.pollution[2] == [0, 0, 0]
    # Live-victim counts are a subset of all pollution counts.
    for a in range(3):
        for v in range(3):
            assert 0 <= res.pollution_live[a][v] <= res.pollution[a][v]
    # The aggressor also burned interconnect slots on its garbage.
    assert res.interconnect["prefetch_grants"][0] > 0
    assert res.interconnect["prefetch_grants"][1] == 0


def test_bandwidth_contention_slows_victims():
    """Tight slots + an aggressive tenant = measurable victim slowdown."""
    traces = tiny_traces(2, length=1500)
    cfg = ContentionConfig(slots_per_cycle=1)
    alone = simulate_contention(traces)
    noisy = simulate_contention(
        traces, [PoisonedStream(NextBlocksStream(), degree=8), None], cfg
    )
    assert noisy.tenants[1].sim.ipc < alone.tenants[1].sim.ipc
    # The wait the victim's demands accumulated is visible and nonzero.
    assert noisy.interconnect["demand_wait_cycles"][1] > 0


def test_prefetch_level_l1_fills_private_cache():
    traces = tiny_traces(1, length=1500)
    l2_only = simulate_contention(
        traces, [NextBlocksStream()], ContentionConfig(prefetch_level="l2")
    )
    to_l1 = simulate_contention(
        traces, [NextBlocksStream()], ContentionConfig(prefetch_level="l1")
    )
    # L1-injected prefetches convert shared-L2 demand lookups into L1 hits.
    assert to_l1.tenants[0].l1.hit_rate > l2_only.tenants[0].l1.hit_rate


def test_collect_returns_oracle_shaped_lists():
    traces = tiny_traces(2, length=300)
    res = simulate_contention(traces, [NextBlocksStream(), None], collect=True)
    assert res.lists is not None and len(res.lists) == 2
    assert len(res.lists[0]) == len(traces[0])
    # Tenant 0's emissions are the scripted next-two-blocks predictions.
    blk0 = int(traces[0].addrs[0]) >> BLOCK_BITS
    assert res.lists[0][0] == [blk0 + 1, blk0 + 2]
    assert all(row == [] for row in res.lists[1])


def test_poisoned_stream_contract_and_determinism():
    p1 = PoisonedStream(NextBlocksStream(), degree=4)
    p2 = PoisonedStream(NextBlocksStream(), degree=4)
    out1 = [p1.ingest(0, i * BLOCK) for i in range(50)]
    out2 = [p2.ingest(0, i * BLOCK) for i in range(50)]
    assert out1 == out2  # deterministic garbage
    flat = [em for ems in out1 for em in ems]
    assert [em.seq for em in flat] == list(range(50))
    assert all(len(em.blocks) == 4 for em in flat)
    with pytest.raises(ValueError):
        PoisonedStream(NextBlocksStream(), degree=0)


def test_throttle_summaries_surface_in_result():
    traces = tiny_traces(2, length=1200)
    ctl = AdmissionController(
        AdmissionConfig(floor=0.2, recover=0.4, min_samples=16,
                       check_every=16, hold=64, lookahead=8)
    )
    streams = [
        ctl.wrap(PoisonedStream(NextBlocksStream(), degree=4), "bad"),
        ctl.wrap(NextBlocksStream(), "good"),
    ]
    res = simulate_contention(traces, streams, ContentionConfig())
    assert set(res.throttle) == {s.name for s in streams}
    bad = res.throttle[streams[0].name]
    assert bad["state"] == "drop" and bad["dropped_blocks"] > 0
    assert res.throttle[streams[1].name]["state"] == "full"
    assert res.summary()["throttle"]

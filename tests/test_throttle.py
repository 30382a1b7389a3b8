"""Admission throttle: hysteresis state machine, filtering, contracts."""

import pytest

from repro.runtime import (
    AdmissionConfig,
    AdmissionController,
    Emission,
    TenantThrottle,
    ThrottledStream,
)
from repro.runtime.replay import _check_exactly_once
from repro.runtime.streaming import StreamingPrefetcher
from repro.utils.bits import BLOCK_BITS

BLOCK = 1 << BLOCK_BITS

#: fast-reacting knobs so tests converge in a few hundred accesses
FAST = dict(floor=0.25, recover=0.60, capped_degree=1, min_samples=8,
            check_every=8, hold=64, lookahead=4, result_window=64)


class ScriptedStream(StreamingPrefetcher):
    """Emits one scripted prediction list per access (accurate or garbage)."""

    def __init__(self, accurate: bool = True):
        self.accurate = accurate
        self.name = "scripted"
        self.latency_cycles = 0.0
        self.storage_bytes = 0
        self.seq = 0

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        seq = self.seq
        self.seq += 1
        blk = addr >> BLOCK_BITS
        # Accurate: the next block (demanded on the very next access; one
        # prediction satisfies one demand, so windowed accuracy reads 1.0).
        # Garbage: far-away blocks the driver will never touch.
        blocks = [blk + 1] if self.accurate else [blk + 10_000, blk + 20_000]
        return [Emission(seq, blocks)]

    def flush(self) -> list[Emission]:
        return []

    def reset(self) -> None:
        self.seq = 0


def drive(stream, n, start=0):
    """Sequential block accesses; returns all delivered emissions."""
    out = []
    for i in range(start, start + n):
        out.extend(stream.ingest(0x400, i * BLOCK))
    return out


# ------------------------------------------------------------- config guard
def test_config_validation():
    with pytest.raises(ValueError, match="hysteresis"):
        AdmissionConfig(floor=0.5, recover=0.3)
    with pytest.raises(ValueError):
        AdmissionConfig(floor=-0.1)
    with pytest.raises(ValueError):
        AdmissionConfig(capped_degree=-1)
    with pytest.raises(ValueError):
        AdmissionConfig(check_every=0)


# ---------------------------------------------------------- state machine
def test_accurate_tenant_stays_full():
    ctl = AdmissionController(AdmissionConfig(**FAST))
    s = ctl.wrap(ScriptedStream(accurate=True), "good")
    out = drive(s, 400)
    assert ctl.state("good") == "full"
    assert all(len(em.blocks) == 1 for em in out)
    assert not ctl.tenants["good"].transitions


def test_garbage_tenant_escalates_to_drop():
    ctl = AdmissionController(AdmissionConfig(**FAST))
    s = ctl.wrap(ScriptedStream(accurate=False), "bad")
    out = drive(s, 400)
    assert ctl.state("bad") == "drop"
    # Escalation passed through capped on the way down.
    states = [new for _, _, new, _ in ctl.tenants["bad"].transitions]
    assert states[:2] == ["capped", "drop"]
    # Late emissions carry seqs but no blocks.
    assert out[-1].blocks == [] and out[-1].seq == 399
    assert ctl.tenants["bad"].dropped_blocks > 0


def test_capped_state_trims_degree():
    th = TenantThrottle("t", AdmissionConfig(**FAST))
    th.state = "capped"
    em = th.admit(Emission(7, [1, 2, 3]))
    assert em.seq == 7 and em.blocks == [1]
    assert th.capped_blocks == 2
    # Already within the cap: the emission passes through untouched.
    small = Emission(8, [5])
    assert th.admit(small) is small


def test_recovery_restores_full_with_hysteresis_hold():
    """A tenant that turns accurate climbs back, but only after `hold`."""
    ctl = AdmissionController(AdmissionConfig(**FAST))
    inner = ScriptedStream(accurate=False)
    s = ctl.wrap(inner, "t")
    drive(s, 200)
    assert ctl.state("t") == "drop"
    down = len(ctl.tenants["t"].transitions)
    inner.accurate = True
    drive(s, 1000, start=200)
    assert ctl.state("t") == "full"
    ups = ctl.tenants["t"].transitions[down:]
    assert [new for _, _, new, _ in ups] == ["capped", "full"]
    # Hysteresis: consecutive de-escalations are at least `hold` apart.
    seqs = [seq for seq, _, _, _ in ups]
    assert seqs[1] - seqs[0] >= FAST["hold"]


def test_monitor_scores_raw_emissions_while_dropping():
    """Accuracy must keep tracking the *inner* stream during drop-all —
    otherwise a dropped tenant could never be observed recovering."""
    ctl = AdmissionController(AdmissionConfig(**FAST))
    inner = ScriptedStream(accurate=False)
    s = ctl.wrap(inner, "t")
    drive(s, 200)
    assert ctl.state("t") == "drop"
    inner.accurate = True
    drive(s, 300, start=200)
    assert ctl.tenants["t"].monitor.accuracy > 0.5


# ------------------------------------------------------------- contracts
def test_throttled_emissions_exactly_once_ascending():
    """Throttling (even drop-all) must preserve the replay contract."""
    ctl = AdmissionController(AdmissionConfig(**FAST))
    s = ctl.wrap(ScriptedStream(accurate=False), "bad")
    n = 300
    out = drive(s, n)
    out.extend(s.flush())
    _check_exactly_once("throttled", {0: out}, {0: n})  # raises on violation


def test_throttled_engine_handle_exactly_once(dart, libquantum_traces):
    """The contract holds on a real micro-batched engine handle too."""
    trace = libquantum_traces(1, 300, 5)[0]
    ctl = AdmissionController(AdmissionConfig(**FAST, ))
    ms = dart.multistream(batch_size=16)
    h = ctl.wrap(ms.streams(1)[0])
    out = []
    for i in range(len(trace)):
        out.extend(h.ingest(int(trace.pcs[i]), int(trace.addrs[i])))
    out.extend(h.flush())
    _check_exactly_once("throttled-handle", {0: out}, {0: len(trace)})


def test_never_firing_throttle_is_bit_identical():
    """floor=0.0 can never fire: delivered emissions are the same objects."""
    ctl = AdmissionController(AdmissionConfig(floor=0.0, recover=0.0))
    inner = ScriptedStream(accurate=False)  # even a terrible tenant
    s = ctl.wrap(inner, "t")
    ref = ScriptedStream(accurate=False)
    got = drive(s, 200)
    want = drive(ref, 200)
    assert [(em.seq, em.blocks) for em in got] == [
        (em.seq, em.blocks) for em in want
    ]
    assert ctl.state("t") == "full" and not ctl.tenants["t"].transitions


# ------------------------------------------------------------- plumbing
def test_wrap_rejects_duplicate_tenant():
    ctl = AdmissionController()
    ctl.wrap(ScriptedStream(), "t")
    with pytest.raises(ValueError, match="already registered"):
        ctl.wrap(ScriptedStream(), "t")


def test_wrap_all_names_and_summary():
    ctl = AdmissionController(AdmissionConfig(**FAST))
    streams = ctl.wrap_all([ScriptedStream(), ScriptedStream()], ["a", "b"])
    assert isinstance(streams[0], ThrottledStream)
    assert set(ctl.states()) == {"a", "b"}
    summ = ctl.summary()
    assert summ["a"]["state"] == "full" and "accuracy" in summ["b"]
    with pytest.raises(ValueError, match="one name per stream"):
        ctl.wrap_all([ScriptedStream()], ["x", "y"])


def test_reset_clears_state_and_counters():
    ctl = AdmissionController(AdmissionConfig(**FAST))
    inner = ScriptedStream(accurate=False)
    s = ctl.wrap(inner, "t")
    drive(s, 200)
    assert ctl.state("t") == "drop"
    s.reset()
    assert ctl.state("t") == "full"
    assert ctl.tenants["t"].dropped_blocks == 0
    assert inner.seq == 0

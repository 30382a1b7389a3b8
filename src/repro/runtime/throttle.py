"""Accuracy-driven admission control for multi-tenant serving.

The contention world (:mod:`repro.sim.contention`) shows *why* a bad tenant
matters: garbage prefetches evict other tenants' live lines from the shared
L2 and burn interconnect slots their demands needed. This module closes the
loop: each tenant's live accuracy — measured by the same
:class:`~repro.runtime.adaptation.StreamMonitor` the adaptation loop uses —
feeds an :class:`AdmissionController` that throttles the tenant's *emission
degree* with hysteresis:

::

            acc < floor                acc < floor
     FULL ──────────────▶ CAPPED ──────────────▶ DROP
       ◀──────────────           ◀──────────────
        acc ≥ recover             acc ≥ recover
        (after `hold`)            (after `hold`)

* **full** — emissions pass through untouched (the *same* list objects, so
  a throttle that never fires is bit-identical to no throttle at all);
* **capped** — each emission is trimmed to ``capped_degree`` blocks;
* **drop** — emissions keep their seq but carry zero blocks.

Escalation is immediate (one step per check once ``min_samples`` predicted
blocks are in the accuracy window); de-escalation additionally waits
``hold`` accesses since the last transition — the hysteresis that stops a
tenant from flapping across the floor. The monitor always scores the *raw*
pre-filter emissions, so accuracy keeps updating while the tenant is
throttled and recovery is detectable (a dropped tenant judged on its
delivered — empty — emissions could never climb back).

This is the serving-side sibling of the simulator's feedback-directed
degree controller (:class:`repro.prefetch.adaptive.FeedbackThrottle`, FDP):
FDP tunes one prefetcher's degree from cache-event counters inside a batch
simulation, while this module gates *admission per tenant* on a live fleet
from stream-level accuracy alone — no cache state needed, so it runs in the
serving path itself.

Seq numbering is never altered, so throttled streams still satisfy the
exactly-once ascending emission contract (:mod:`repro.runtime.replay`) and
plug into every serving driver: :func:`~repro.runtime.engine.serve`,
:func:`~repro.runtime.multistream.serve_interleaved`, the sharded fleet's
handles, and :func:`~repro.sim.contention.simulate_contention`. Wrap any
handle with :meth:`AdmissionController.wrap`::

    controller = AdmissionController(AdmissionConfig(floor=0.2))
    handles = [controller.wrap(h) for h in engine.streams(4)]
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.adaptation import AdaptationConfig, StreamMonitor
from repro.runtime.streaming import Emission, StreamingPrefetcher

#: throttle states, in escalation order
FULL, CAPPED, DROP = "full", "capped", "drop"
_STATES = (FULL, CAPPED, DROP)


@dataclass(frozen=True)
class AdmissionConfig:
    """Hysteresis band and cadence of the admission controller.

    Attributes
    ----------
    floor:
        Windowed accuracy below which the tenant escalates one state.
    recover:
        Accuracy at or above which the tenant de-escalates one state
        (must be >= ``floor`` — the gap is the hysteresis band).
    capped_degree:
        Blocks kept per emission in the ``capped`` state.
    min_samples:
        Predicted blocks required in the accuracy window before any
        transition is considered (warm-up guard).
    check_every:
        Accesses between state checks.
    hold:
        Accesses that must pass since the last transition before a
        de-escalation (escalation is never held back).
    lookahead:
        Accuracy horizon: a predicted block must be demanded within this
        many subsequent accesses to count (mirror the monitor default).
    result_window:
        Emissions kept in the sliding accuracy window.
    """

    floor: float = 0.25
    recover: float = 0.40
    capped_degree: int = 1
    min_samples: int = 64
    check_every: int = 32
    hold: int = 256
    lookahead: int = 16
    result_window: int = 256

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor <= 1.0 or not 0.0 <= self.recover <= 1.0:
            raise ValueError("floor and recover must be in [0, 1]")
        if self.recover < self.floor:
            raise ValueError("recover must be >= floor (hysteresis band)")
        if self.capped_degree < 0:
            raise ValueError("capped_degree must be non-negative")
        if self.check_every < 1 or self.hold < 0 or self.min_samples < 1:
            raise ValueError("check_every/hold/min_samples out of range")

    def monitor_config(self) -> AdaptationConfig:
        """The accuracy-window slice of the adaptation knobs."""
        window = max(2, 2 * self.result_window)
        return AdaptationConfig(
            window=window,
            lookahead=self.lookahead,
            check_every=self.check_every,
            min_samples=self.min_samples,
            result_window=self.result_window,
            feature_window=min(1024, window),
        )


class TenantThrottle:
    """One tenant's monitor + hysteresis state machine."""

    def __init__(self, name: str, config: AdmissionConfig | None = None):
        self.name = name
        self.config = config or AdmissionConfig()
        self.monitor = StreamMonitor(self.config.monitor_config())
        self.state = FULL
        self.since = 0  # monitor seq of the last transition
        #: (seq, old_state, new_state, accuracy) per transition
        self.transitions: list[tuple[int, str, str, float]] = []
        self.capped_blocks = 0
        self.dropped_blocks = 0

    # ------------------------------------------------------------- decisions
    def observe(self, pc: int, addr: int, emissions: list[Emission]) -> None:
        """Feed one access and its *raw* (pre-filter) emissions."""
        cfg = self.config
        mon = self.monitor
        mon.update(pc, addr)
        mon.record(emissions)
        if mon.seq % cfg.check_every != 0:
            return
        if mon.samples < cfg.min_samples:
            return
        acc = mon.accuracy
        idx = _STATES.index(self.state)
        if acc < cfg.floor and idx < len(_STATES) - 1:
            self._move(idx + 1, acc)
        elif (
            acc >= cfg.recover
            and idx > 0
            and mon.seq - self.since >= cfg.hold
        ):
            self._move(idx - 1, acc)

    def _move(self, new_idx: int, accuracy: float) -> None:
        old = self.state
        self.state = _STATES[new_idx]
        self.since = self.monitor.seq
        self.transitions.append((self.monitor.seq, old, self.state, accuracy))

    def admit(self, em: Emission) -> Emission:
        """Apply the current state to one emission (seq is never touched)."""
        if self.state is FULL or not em.blocks:
            return em
        if self.state is CAPPED:
            keep = self.config.capped_degree
            if len(em.blocks) <= keep:
                return em
            self.capped_blocks += len(em.blocks) - keep
            return Emission(em.seq, list(em.blocks[:keep]))
        self.dropped_blocks += len(em.blocks)
        return Emission(em.seq, [])

    def reset(self) -> None:
        self.monitor.reset()
        self.state = FULL
        self.since = 0
        self.transitions.clear()
        self.capped_blocks = 0
        self.dropped_blocks = 0

    def summary(self) -> dict:
        return {
            "state": self.state,
            "accuracy": round(self.monitor.accuracy, 4),
            "samples": self.monitor.samples,
            "transitions": [
                (seq, old, new, round(acc, 4))
                for seq, old, new, acc in self.transitions
            ],
            "capped_blocks": self.capped_blocks,
            "dropped_blocks": self.dropped_blocks,
        }


class ThrottledStream(StreamingPrefetcher):
    """A tenant stream wearing its admission throttle.

    Wraps any :class:`StreamingPrefetcher` (engine handles included). In
    the ``full`` state ingest returns the inner stream's emission list
    *unmodified* — the bit-identity guarantee the conformance column pins —
    and otherwise each emission is capped or emptied in place, seqs intact.
    """

    def __init__(self, inner: StreamingPrefetcher, throttle: TenantThrottle):
        self.inner = inner
        self.throttle = throttle
        self.name = f"{getattr(inner, 'name', throttle.name)}+throttle"
        self.latency_cycles = getattr(inner, "latency_cycles", 0.0)
        self.storage_bytes = getattr(inner, "storage_bytes", 0)
        self.seq = getattr(inner, "seq", 0)
        index = getattr(inner, "index", None)
        if index is not None:  # engine handles carry their stream index
            self.index = index

    def _admit(self, emissions: list[Emission]) -> list[Emission]:
        if self.throttle.state is FULL:
            return emissions  # pass the same objects through: zero overhead
        return [self.throttle.admit(em) for em in emissions]

    def ingest(self, pc: int, addr: int) -> list[Emission]:
        emissions = self.inner.ingest(pc, addr)
        self.throttle.observe(pc, addr, emissions)
        self.seq = getattr(self.inner, "seq", self.seq + 1)
        return self._admit(emissions)

    def flush(self) -> list[Emission]:
        tail = self.inner.flush()
        self.throttle.monitor.record(tail)
        return self._admit(tail)

    def reset(self) -> None:
        self.inner.reset()
        self.throttle.reset()
        self.seq = getattr(self.inner, "seq", 0)


class AdmissionController:
    """Per-tenant throttles over one shared hysteresis policy.

    One controller fronts a fleet: :meth:`wrap` each tenant's handle (from
    :class:`~repro.runtime.multistream.MultiStreamEngine`,
    :class:`~repro.runtime.sharded.ShardedEngine`, or any adapter) and
    drive the wrapped streams exactly as before — the controller keeps the
    registry for fleet-wide state queries and summaries.
    """

    def __init__(self, config: AdmissionConfig | None = None):
        self.config = config or AdmissionConfig()
        self.tenants: dict[str, TenantThrottle] = {}

    def wrap(
        self, stream: StreamingPrefetcher, tenant: str | None = None
    ) -> ThrottledStream:
        name = tenant or getattr(stream, "name", None) or f"tenant{len(self.tenants)}"
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already registered")
        throttle = TenantThrottle(name, self.config)
        self.tenants[name] = throttle
        return ThrottledStream(stream, throttle)

    def wrap_all(
        self,
        streams: list[StreamingPrefetcher],
        names: list[str] | None = None,
    ) -> list[ThrottledStream]:
        if names is not None and len(names) != len(streams):
            raise ValueError("need one name per stream")
        return [
            self.wrap(s, names[i] if names else None)
            for i, s in enumerate(streams)
        ]

    def state(self, tenant: str) -> str:
        return self.tenants[tenant].state

    def states(self) -> dict[str, str]:
        return {name: t.state for name, t in self.tenants.items()}

    def summary(self) -> dict:
        return {name: t.summary() for name, t in self.tenants.items()}

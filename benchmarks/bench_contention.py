"""Multi-tenant contention + admission throttling: the recovery gate.

Not a paper figure — the noisy-neighbor check for the serving stack. Four
tenants share one PLRU L2 and a one-slot-per-cycle interconnect
(:func:`repro.sim.simulate_contention`); each is served online by a handle
from one shared DART :class:`~repro.runtime.multistream.MultiStreamEngine`.
Four scenario runs:

* **A (healthy)** — all four tenants predict normally; baseline IPC.
* **B (poisoned)** — tenant 0's predictions are garbled to degree-8 garbage
  (:class:`~repro.sim.contention.PoisonedStream`): its prefetch fills evict
  the victims' live L2 lines and its fills steal interconnect slots.
* **C (throttled)** — same poison, but every tenant wears the
  accuracy-driven :class:`~repro.runtime.throttle.AdmissionController`;
  the poisoned tenant must be driven to ``drop`` and the victims must
  recover most of what B cost them.
* **D (zero-overhead)** — healthy tenants *with* the controller: no state
  may ever leave ``full`` and the delivered emissions must be bit-identical
  to A's (the throttle-that-never-fires gate, same contract the serving
  conformance matrix pins).

Two bars gate ``pass``:

* **recovery** — the victims (tenants 1..3) regain >= 50% of the aggregate
  IPC the poisoned neighbor cost them: ``(C - B) / (A - B) >= 0.5`` (the
  shared-L2 demand hit rate recovery is recorded alongside);
* **zero overhead** — D's emission lists equal A's exactly, and no D
  tenant ever transitions.

Run standalone (writes the ``BENCH_contention.json`` artifact)::

    PYTHONPATH=src python benchmarks/bench_contention.py --accesses 3000

``--smoke`` (CI) shrinks to ~1.5k accesses per tenant. Future PRs compare
against the committed history of this artifact; keep the workload/seed
stable.
"""

from __future__ import annotations

import argparse
import json
import time

from bench_sharded import build_dart, make_streams

from repro.runtime import AdmissionConfig, AdmissionController
from repro.sim import ContentionConfig, PoisonedStream, simulate_contention
from repro.utils import log

#: throttle knobs sized to untrained-DART accuracy (~0.25 windowed at
#: lookahead 64 on libquantum) vs. a poisoned tenant's 0.0 — the floor
#: sits between them so only the garbage stream escalates.
THROTTLE = dict(
    floor=0.08, recover=0.16, lookahead=64,
    min_samples=64, check_every=32, hold=256, result_window=512,
)


def run(
    accesses: int,
    n_tenants: int,
    batch_size: int,
    poison_degree: int,
    output: str | None,
    seed: int = 2,
) -> dict:
    traces = make_streams(n_tenants, accesses, seed)
    dart = build_dart(traces[0])
    cfg = ContentionConfig()
    victims = range(1, n_tenants)
    perf = time.perf_counter

    def handles():
        return list(dart.multistream(batch_size=batch_size).streams(n_tenants))

    def poisoned(streams):
        return [PoisonedStream(streams[0], degree=poison_degree)] + streams[1:]

    t0 = perf()
    a = simulate_contention(traces, handles(), cfg, collect=True)
    b = simulate_contention(traces, poisoned(handles()), cfg)
    ctl_c = AdmissionController(AdmissionConfig(**THROTTLE))
    c = simulate_contention(traces, ctl_c.wrap_all(poisoned(handles())), cfg)
    ctl_d = AdmissionController(AdmissionConfig(**THROTTLE))
    d = simulate_contention(traces, ctl_d.wrap_all(handles()), cfg, collect=True)
    seconds = perf() - t0

    def victim_ipc(res):
        return sum(res.tenants[v].sim.ipc for v in victims)

    def victim_hit(res):
        hit = sum(res.tenants[v].l2.hits for v in victims)
        acc = sum(res.tenants[v].l2.accesses for v in victims)
        return hit / acc if acc else 0.0

    lost_ipc = victim_ipc(a) - victim_ipc(b)
    lost_hit = victim_hit(a) - victim_hit(b)
    ipc_recovery = (victim_ipc(c) - victim_ipc(b)) / lost_ipc if lost_ipc > 0 else 0.0
    hit_recovery = (victim_hit(c) - victim_hit(b)) / lost_hit if lost_hit > 0 else 0.0

    poison_name = next(iter(ctl_c.tenants))  # tenant 0 registered first
    aggressor_dropped = ctl_c.state(poison_name) == "drop"
    never_fired = (
        all(s == "full" for s in ctl_d.states().values())
        and all(not t.transitions for t in ctl_d.tenants.values())
    )
    identical = d.lists == a.lists
    recovered = ipc_recovery >= 0.5

    record = {
        "workload": "462.libquantum",
        "seed": seed,
        "tenants": n_tenants,
        "accesses_per_tenant": accesses,
        "batch_size": batch_size,
        "poison_degree": poison_degree,
        "throttle": dict(THROTTLE),
        "seconds": seconds,
        "victim_ipc_healthy": round(victim_ipc(a), 4),
        "victim_ipc_poisoned": round(victim_ipc(b), 4),
        "victim_ipc_throttled": round(victim_ipc(c), 4),
        "victim_l2_hit_healthy": round(victim_hit(a), 4),
        "victim_l2_hit_poisoned": round(victim_hit(b), 4),
        "victim_l2_hit_throttled": round(victim_hit(c), 4),
        "ipc_recovery": round(ipc_recovery, 4),
        "l2_hit_recovery": round(hit_recovery, 4),
        "pollution_inflicted_poisoned": b.inflicted(0),
        "pollution_inflicted_throttled": c.inflicted(0),
        "aggressor_dropped": aggressor_dropped,
        "aggressor_dropped_blocks": ctl_c.tenants[poison_name].dropped_blocks,
        "throttle_never_fired_when_healthy": never_fired,
        "identical_to_unthrottled": identical,
        "recovery_ge_half": recovered,
    }
    record["pass"] = recovered and aggressor_dropped and never_fired and identical

    log.table(
        f"contention recovery over {n_tenants} tenants "
        f"({accesses:,} accesses each, poison degree {poison_degree})",
        ["metric", "A healthy", "B poisoned", "C throttled"],
        [
            ["victim aggregate IPC", f"{victim_ipc(a):.3f}",
             f"{victim_ipc(b):.3f}", f"{victim_ipc(c):.3f}"],
            ["victim L2 demand hit", f"{victim_hit(a):.2%}",
             f"{victim_hit(b):.2%}", f"{victim_hit(c):.2%}"],
            ["pollution inflicted by tenant 0", str(a.inflicted(0)),
             str(b.inflicted(0)), str(c.inflicted(0))],
        ],
    )
    verdict = "PASS" if record["pass"] else "FAIL"
    print(
        f"[{verdict}] IPC recovery {ipc_recovery:.1%} (>= 50%: {recovered}), "
        f"L2-hit recovery {hit_recovery:.1%}, aggressor dropped: "
        f"{aggressor_dropped}, healthy throttle bit-identical: {identical}"
    )
    if output:
        with open(output, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"wrote {output}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--accesses", type=int, default=3000, help="per tenant")
    ap.add_argument("--tenants", type=int, default=4)
    ap.add_argument("--batch-size", type=int, default=16)
    ap.add_argument("--poison-degree", type=int, default=8)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--output", "-o", default="BENCH_contention.json")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny CI run: ~1.5k accesses per tenant")
    args = ap.parse_args(argv)
    if args.smoke:
        args.accesses = 1500
    record = run(
        args.accesses, args.tenants, args.batch_size, args.poison_degree,
        args.output, seed=args.seed,
    )
    return 0 if record["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

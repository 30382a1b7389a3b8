#!/usr/bin/env python3
"""Host-normalized serving benchmark: one workload, one run.

Usage, from the repository root::

    python3 servebench/run.py --workload b1-single --seed 1 --seconds 6 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer metrics. Both check every delivered
emission against the batch oracle. The last line of standard output is the
result object; the lines before it are a readable summary and a ``detail``
JSON line with raw timings, probe rates and the host stamp (also written to
``.servebench/`` in the repository root, with the spans of a traced run).

Exit status: 0 when every emission matched the oracle and no control call
failed; 1 when the workload failed (the first offending ``(stream, seq)`` is
named on stderr); 2 when the program under test is missing or the
arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from servebench.env import apply_thread_env  # noqa: E402  (sets env before numpy)

apply_thread_env()

from servebench import checks, hostnorm, tracing, workloads  # noqa: E402
from servebench.env import bench_env  # noqa: E402

#: set-ups per run; set-up time is their median
SETUP_REPS = 3
#: a traced run's root spans must cover at least this share of its wall time
SPAN_COVERAGE_TOLERANCE = 0.90
OUT_DIR = ROOT / ".servebench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_aps": "1/s",
    "response_p50_us": "us",
    "response_p95_us": "us",
    "rss_peak_mb": "MB",
    "prefetch_accuracy": "ratio",
    "prefetch_coverage": "ratio",
    "succeeded_share": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _load_program():
    """Import the program under test from this checkout's ``src/`` only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found at {src / 'repro'}; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve()
    if src.resolve() not in where.parents:
        print(f"error: imported repro from {where}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def _served_traces(workload: str, seed: int):
    from repro.traces import make_workload

    from servebench.model import TRAIN_WORKLOAD, served_seed

    traces = [
        make_workload(TRAIN_WORKLOAD, scale=workloads.STREAM_SCALE[workload],
                      seed=served_seed(seed, s))
        for s in range(workloads.n_streams(workload))
    ]
    lists = [(t.pcs.tolist(), t.addrs.tolist()) for t in traces]
    return traces, lists


def _setup(workload, lists, seed):
    """One set-up: build the model, construct and start the engine.

    Returns ``(built, driver, normalized seconds, normalized seconds per
    stage, probe summary)``. A probe runs before and after every stage; each
    stage is scaled by the probes around it.
    """
    from servebench.model import build_model

    meter = hostnorm.HostMeter()
    meter.probe()
    built = build_model(between=meter.probe)
    for name in ("teacher_s", "student_s", "convert_s"):
        meter.add_slice(built.stages[name])
    swap_models = _swap_models(workload, built)
    t0 = time.perf_counter()
    driver = workloads.make_driver(workload, built.dart, lists, seed,
                                   swap_models=swap_models)
    meter.add_slice(time.perf_counter() - t0)
    meter.probe()
    norm = meter.normalize(meter.slices)
    stages = dict(zip(("distillation.teacher_s", "distillation.student_s",
                       "tabularization.convert_s", "runtime.engine_start_s"), norm))
    return built, driver, sum(norm), stages, meter.summary()


def _rss_peak_mb(pids) -> float:
    """Peak RSS of this process plus the listed workers (VmHWM, MB)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            pass
    return kb / 1024.0


def _check(driver, traces, dart) -> dict:
    """Oracle-check every stream; pool accuracy/coverage of what arrived."""
    from repro.runtime import score_prefetch_lists
    from repro.utils.bits import block_address

    attempted = failed = 0
    first = None
    scores = []
    for s, trace in enumerate(traces):
        n = driver.pos[s]
        prefix = trace.slice(0, n)
        verdict = checks.check_stream(driver.got[s], dart.prefetch_lists(prefix))
        attempted += verdict.attempted
        failed += verdict.failed
        if first is None and verdict.first() is not None:
            seq, why = verdict.first()
            first = {"stream": s, "seq": seq, "reason": why}
        scores.append(score_prefetch_lists(checks.delivered_lists(driver.got[s], n),
                                           block_address(prefix.addrs)))
    attempted += driver.control_attempted
    failed += len(driver.control_failures)
    if first is None and driver.control_failures:
        first = {"control": driver.control_failures[0]}
    return {"attempted": attempted, "failed": failed, "first_failure": first,
            "score": checks.merge_scores(scores)}


def _serve_phase(driver, seconds, workload, tracer=None) -> dict:
    """Serve for ``seconds``; timed metrics are medians over windows.

    Consecutive slices are grouped into windows of ``WINDOW_SLICES``. Per
    window: normalized throughput and the p50/p95/p99 of the normalized
    response samples. A run's throughput and percentiles are the medians
    over its full windows, so one slow host phase moves a run's figures less
    than it moves a pooled total.
    """
    meter = hostnorm.HostMeter()
    slice_n = workloads.SLICE_ACCESSES[workload]
    counts = workloads.measure(driver, meter, seconds, slice_n, tracer=tracer)
    scales = meter.scales()
    norm_slices = meter.normalize(meter.slices)
    per_window = workloads.WINDOW_SLICES[workload]
    windows = []
    for w0 in range(0, len(counts) - per_window + 1, per_window):
        idx = range(w0, w0 + per_window)
        n = sum(counts[i] for i in idx)
        if n < workloads.MIN_WINDOW_ACCESSES:
            break
        samples = [v * scales[i] for i in idx for v in driver.slice_resp[i]]
        windows.append({
            "accesses": n,
            "raw_s": sum(meter.slices[i] for i in idx),
            "normalized_s": sum(norm_slices[i] for i in idx),
            "p50": checks.percentile(samples, 0.50),
            "p95": checks.percentile(samples, 0.95),
            "p99": checks.percentile(samples, 0.99),
        })
    if not windows:
        raise RuntimeError(f"run too short: not one window of {per_window} slices served")
    med = statistics.median
    accesses = sum(counts)
    raw_s, norm_s = sum(meter.slices), sum(norm_slices)
    pooled = [v * sc for resp, sc in zip(driver.slice_resp, scales) for v in resp]
    return {
        "accesses": accesses,
        "raw_s": raw_s,
        "normalized_s": norm_s,
        "throughput_aps": med(w["accesses"] / w["normalized_s"] for w in windows),
        "raw_throughput_aps": med(w["accesses"] / w["raw_s"] for w in windows),
        "p50_us": med(w["p50"]["value"] for w in windows) * 1e6,
        "p95_us": med(w["p95"]["value"] for w in windows) * 1e6,
        "p99_us": med(w["p99"]["value"] for w in windows) * 1e6,
        "windows": len(windows),
        "window_samples_min": min(w["p99"]["samples"] for w in windows),
        "window_p95_beyond_min": min(w["p95"]["beyond"] for w in windows),
        "window_p99_beyond_min": min(w["p99"]["beyond"] for w in windows),
        "pooled_throughput_aps": accesses / norm_s,
        "pooled_p50": checks.percentile(pooled, 0.50),
        "pooled_p95": checks.percentile(pooled, 0.95),
        "pooled_p99": checks.percentile(pooled, 0.99),
        "per_window": [{"accesses": w["accesses"], "raw_s": w["raw_s"],
                        "normalized_s": w["normalized_s"],
                        "p50_us": w["p50"]["value"] * 1e6,
                        "p95_us": w["p95"]["value"] * 1e6,
                        "p99_us": w["p99"]["value"] * 1e6} for w in windows],
        "probe": meter.summary(),
        "probe_overhead_share": meter.probe_total_s / (meter.probe_total_s + raw_s),
        "slices": len(meter.slices),
        "raw_slices_s": meter.slices,
        "probes_s": meter.probes,
        "slice_accesses": counts,
        "exhausted": driver.exhausted,
        "norm_factor": norm_s / raw_s,
    }


def _span_metrics(workload, tracer, phase, driver, counters0, counters1, untraced,
                  built) -> dict:
    """Per-layer metrics from a traced phase's spans and engine counters."""
    agg = tracing.summarize(tracer.spans)
    f = phase["norm_factor"]  # raw -> normalized seconds for this phase

    def per_call_us(name, per_row=False):
        a = agg.get(name)
        denom = (a["rows"] if per_row else a["count"]) if a else 0
        return a["total_s"] * f * 1e6 / denom if denom else 0.0

    ingest = agg.get("serve.ingest")
    if ingest and ingest["leaf_count"]:
        push = ingest["leaf_total_s"] / ingest["leaf_count"]
    elif ingest:  # every ingest flushed (B=1): its self time is the push
        push = ingest["self_s"] / ingest["count"]
    else:
        push = 0.0
    covered = tracing.root_seconds(tracer.spans)
    calls = counters1["predict_calls"] - counters0["predict_calls"]
    fast = counters1["fast_path_flushes"] - counters0["fast_path_flushes"]
    warm = built.config.history_len - 1
    queries = sum(1 for got in driver.got for seq, _ in got if seq >= warm)
    m = {
        "runtime.push_us": push * f * 1e6,
        "runtime.batch_fill_mean": queries / calls if calls else 0.0,
        "runtime.fast_path_share": fast / calls if calls else 0.0,
        "tabularization.query1_us": per_call_us("tabularization.query1"),
        "tabularization.predict_us": per_call_us("tabularization.predict", per_row=True),
        "prefetch.decode1_us": per_call_us("prefetch.decode1"),
        "prefetch.decode_us": per_call_us("prefetch.decode", per_row=True),
        "runtime.dispatch_us": per_call_us("runtime.dispatch"),
        "runtime.unattributed_us": (phase["raw_s"] - covered) * f * 1e6 / phase["accesses"],
        "runtime.span_coverage": covered / phase["raw_s"],
        "runtime.tracing_overhead": untraced["throughput_aps"] / phase["throughput_aps"] - 1.0,
        "runtime.credit_stalls": 0.0,
        "runtime.overlap_ratio": 0.0,
        "runtime.worker_p50_us": 0.0,
        "runtime.migrate_ms": 0.0,
        "runtime.swap_ms": 0.0,
        "runtime.swap_drained": 0.0,
        "registry.snapshot_bytes": 0.0,
    }
    if workload == "w2-sharded":
        def mean(xs):
            return statistics.fmean(xs) if xs else 0.0

        m.update({
            "runtime.credit_stalls": float(counters1["credit_stalls"] - counters0["credit_stalls"]),
            "runtime.overlap_ratio": counters1["overlap_ratio"],
            "runtime.worker_p50_us": driver.worker_p50_us(),
            "runtime.migrate_ms": mean(driver.migrate_s) * f * 1e3,
            "runtime.swap_ms": mean(driver.swap_s) * f * 1e3,
            "runtime.swap_drained": mean(driver.swap_drained),
            "registry.snapshot_bytes": mean(driver.snapshot_bytes),
        })
    return m


def _ledger_metrics(led: dict) -> dict:
    from servebench.ledger import metric_name

    m = {}
    for name, row in led["components"].items():
        m[f"tabularization.{metric_name(name)}.b1_us"] = row["b1_us"]
        m[f"tabularization.{metric_name(name)}.b32_us"] = row["b32_us"]
    for key in ("component_sum_share_b32", "predict_b1_us", "predict_b32_us", "dense_b1_us",
                "dense_b32_us", "speedup_vs_dense_b1", "speedup_vs_dense_b32"):
        m[f"tabularization.{key}"] = led[key]
    return m


def _traced(args, traces, lists, built, driver, open_drivers):
    """Same-run A/B: half the time untraced on the set-up engine, half
    traced on a fresh engine built around the timing wrappers."""
    from repro.prefetch.dart import DARTPrefetcher

    from servebench import ledger

    workload = args.workload
    half = args.seconds / 2
    untraced = _serve_phase(driver, half, workload)
    verdicts = [_check(driver, traces, built.dart)]
    driver.close()
    open_drivers.remove(driver)
    tracer = tracing.Tracer()
    with tracing.timed_decoders(tracer):
        dart = built.dart
        if workload != "w2-sharded":  # shard workers cannot carry the proxy
            dart = DARTPrefetcher(tracing.TimedModel(built.tabular, tracer), built.config)
        driver = workloads.make_driver(workload, dart, lists, args.seed, tracer=tracer,
                                       swap_models=_swap_models(workload, built))
        open_drivers.append(driver)
        counters0 = driver.counters()
        phase = _serve_phase(driver, half, workload, tracer=tracer)
        counters1 = driver.counters()
    verdicts.append(_check(driver, traces, built.dart))
    metrics = _span_metrics(workload, tracer, phase, driver, counters0, counters1, untraced,
                            built)
    # The ledger prices each table component on real windows of stream 0.
    xa, xp = ledger.windows(traces[0], built.config, 32)
    led = ledger.build_ledger(built.tabular, built.student, xa, xp, hostnorm.HostMeter())
    metrics.update(_ledger_metrics(led))
    for line in ledger.format_ledger(led):
        print(line)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl")
    detail = {"untraced": untraced, "traced": phase, "ledger": led, "verdicts": verdicts,
              "span_coverage_tolerance": SPAN_COVERAGE_TOLERANCE,
              "span_coverage_ok": metrics["runtime.span_coverage"] >= SPAN_COVERAGE_TOLERANCE}
    return metrics, verdicts, detail


def _untraced(args, traces, built, driver):
    phase = _serve_phase(driver, args.seconds, args.workload)
    rss = _rss_peak_mb(driver.worker_pids() if args.workload == "w2-sharded" else [])
    verdict = _check(driver, traces, built.dart)
    metrics = {
        "throughput_aps": phase["throughput_aps"],
        "response_p50_us": phase["p50_us"],
        "response_p95_us": phase["p95_us"],
        "rss_peak_mb": rss,
        "prefetch_accuracy": verdict["score"]["accuracy"],
        "prefetch_coverage": verdict["score"]["coverage"],
        "succeeded_share": (verdict["attempted"] - verdict["failed"]) / verdict["attempted"],
    }
    return metrics, [verdict], {"phase": phase, "verdict": verdict}


def _swap_models(workload, built):
    return workloads.swap_targets(built.dart) if workload == "w2-sharded" else None


def run(args) -> int:
    _load_program()
    import gc

    workload = args.workload
    traces, lists = _served_traces(workload, args.seed)
    setups = []
    open_drivers = []
    try:
        for _ in range(SETUP_REPS):
            while open_drivers:
                open_drivers.pop().close()
            gc.collect()
            built, driver, setup_s, stages, probe = _setup(workload, lists, args.seed)
            open_drivers.append(driver)
            setups.append({"setup_s": setup_s, "stages": stages, "probe": probe})
        if args.trace:
            metrics, verdicts, detail = _traced(args, traces, lists, built, driver, open_drivers)
            for key in setups[0]["stages"]:
                metrics[key] = statistics.median(s["stages"][key] for s in setups)
        else:
            metrics, verdicts, detail = _untraced(args, traces, built, driver)
            metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups), **metrics}
    finally:
        while open_drivers:
            open_drivers.pop().close()

    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    first = next((v["first_failure"] for v in verdicts if v["first_failure"]), None)
    detail = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setups": setups, **detail,
              "attempted": attempted, "failed": failed,
              "env": bench_env(ROOT, sys.argv, args.seed)}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g}")
    ph = detail.get("phase") or detail["traced"]
    print(f"response samples: {ph['pooled_p50']['samples']} in {ph['windows']} windows "
          f"(fewest in a window {ph['window_samples_min']}, fewest beyond its p95 "
          f"{ph['window_p95_beyond_min']}); p99 (diagnostic) {ph['p99_us']:.1f} us; "
          f"attempted {attempted}, failed {failed}")
    print("detail " + json.dumps(detail, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": _unit(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    if failed:
        print(f"FAIL {workload}: {failed} of {attempted} operations failed; first: {first}",
              file=sys.stderr)
        return 1
    return 0


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    if name in ("runtime.credit_stalls", "runtime.swap_drained", "runtime.batch_fill_mean"):
        return "count"
    return "ratio"


def _reap_children() -> None:
    """Stop every process this run started and wait for each to end.

    ``close()`` joins the shard workers; this also covers a worker left by a
    failed path, and the shared-memory resource tracker that multiprocessing
    starts on the first publish, which would otherwise outlive the run.
    """
    import multiprocessing as mp

    for proc in mp.active_children():
        proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, then waits for it


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return run(args)
    finally:
        _reap_children()


if __name__ == "__main__":
    sys.exit(main())

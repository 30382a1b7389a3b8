"""Command-line interface: ``repro <subcommand>``.

Subcommands mirror a deployment workflow:

* ``trace``    — generate a synthetic SPEC-like workload trace (``.npz``) and
  print its Table IV-style statistics.
* ``train``    — run the full Fig. 2 pipeline on a trace and save the
  resulting table hierarchy (the thing a DART deployment ships).
* ``simulate`` — replay a trace through the LLC simulator with a chosen
  prefetcher (rule-based, or DART tables from ``train``) and print the
  accuracy / coverage / IPC metrics.
* ``stream``   — serve a trace through the online runtime (chunked ingestion,
  micro-batched prediction) and report throughput plus p50/p99 per-access
  latency; optionally compare against the batch path and emit a JSON
  artifact. With ``--cores N`` the trace is split into N interleaved shards
  (concurrent streams); ``--share-model`` serves them all from one shared
  model engine with cross-stream micro-batching; ``--workers W`` scales out
  across W OS worker processes with the tables mapped zero-copy from shared
  memory, and ``--churn`` runs the elastic scenario on that fleet (mid-serve
  stream admission/close, live migration, worker rescale, a hot swap — with
  a bit-identity gate against the batch path). With ``--adapt`` (plus
  ``--student`` from ``train --save-student``) the engine monitors the
  stream for drift, re-fits the tables on the recent window, and hot-swaps
  them without dropping an emission.
* ``configure`` — query the table configurator for a (latency, storage)
  budget without training anything.
* ``registry`` — the content-addressed model registry: ``put`` a trained
  artifact (optionally as a row-delta against its parent version), ``log``
  a ref's lineage, ``checkout`` any version to a standalone ``.npz``, and
  ``push``/``pull`` lineages against a filesystem remote.

Every subcommand is importable and unit-tested via :func:`main(argv)`.
"""

from __future__ import annotations

import argparse
import sys

from repro.utils import log


def _cmd_trace(args) -> int:
    from repro.traces import make_workload, trace_statistics

    trace = make_workload(args.workload, scale=args.scale, seed=args.seed)
    stats = trace_statistics(trace)
    log.table(
        f"trace statistics for {args.workload}",
        ["metric", "value"],
        [[k, v] for k, v in stats.items() if k != "name"],
    )
    if args.output:
        trace.save(args.output)
        print(f"saved {len(trace):,} accesses to {args.output}")
    return 0


def _cmd_train(args) -> int:
    from repro.core import DARTPipeline
    from repro.data import PreprocessConfig
    from repro.distillation import TrainConfig
    from repro.models import ModelConfig, save_attention_predictor
    from repro.runtime import ModelArtifact
    from repro.traces import MemoryTrace, make_workload

    if args.trace:
        trace = MemoryTrace.load(args.trace)
    else:
        trace = make_workload(args.workload, scale=args.scale, seed=args.seed)
    log.set_verbose(True)
    pipeline = DARTPipeline(
        preprocess=PreprocessConfig(),
        teacher_config=ModelConfig(
            layers=args.teacher_layers,
            dim=args.teacher_dim,
            heads=args.teacher_heads,
            history_len=16,
            bitmap_size=256,
        ),
        latency_budget=args.latency_budget,
        storage_budget=args.storage_budget,
        teacher_train=TrainConfig(epochs=args.epochs, seed=args.seed),
        student_train=TrainConfig(epochs=args.epochs, lr=2e-3, seed=args.seed + 1),
        max_samples=args.max_samples,
        seed=args.seed,
    )
    result = pipeline.run(trace)
    log.table(
        "pipeline result",
        ["stage", "F1"],
        [[k, f"{v:.4f}"] for k, v in result.f1.items()],
    )
    print(f"DART: {result.dart.latency_cycles} cycles, "
          f"{result.dart.storage_bytes / 1024:.1f} KB")
    if args.output:
        # Ship a versioned artifact: the blob records where it came from, so
        # `repro export --info` / `_make_prefetcher` can trace deployed
        # tables back to this training run.
        artifact = ModelArtifact(
            result.tabular,
            version=1,
            metadata={
                "trained_on": args.trace or args.workload,
                "seed": args.seed,
                "epochs": args.epochs,
                "max_samples": args.max_samples,
                "f1": {k: round(float(v), 4) for k, v in result.f1.items()},
            },
        )
        artifact.save(args.output)
        print(f"saved table hierarchy to {args.output} (artifact v{artifact.version})")
    if args.save_student:
        save_attention_predictor(result.student, args.save_student)
        print(f"saved distilled student to {args.save_student} "
              "(enables `stream --adapt --student ...`)")
    return 0


#: prefetcher names accepted by ``simulate``/``hierarchy``/``multicore``
PREFETCHER_CHOICES = [
    "none",
    "bo",
    "isb",
    "stride",
    "nextline",
    "spp",
    "sms",
    "ghb",
    "ghb-pc",
    "markov",
    "streamer",
    "dart",
]


def _make_prefetcher(name: str, tables: str | None, student: str | None = None):
    from repro.data import PreprocessConfig
    from repro.prefetch import (
        BestOffsetPrefetcher,
        DARTPrefetcher,
        GHBPrefetcher,
        ISBPrefetcher,
        MarkovPrefetcher,
        NextLinePrefetcher,
        SMSPrefetcher,
        SPPPrefetcher,
        StreamPrefetcher,
        StridePrefetcher,
    )

    if name == "none":
        return None
    if name == "bo":
        return BestOffsetPrefetcher()
    if name == "isb":
        return ISBPrefetcher()
    if name == "stride":
        return StridePrefetcher()
    if name == "nextline":
        return NextLinePrefetcher(degree=2)
    if name == "spp":
        return SPPPrefetcher()
    if name == "sms":
        return SMSPrefetcher()
    if name == "ghb":
        return GHBPrefetcher("global")
    if name == "ghb-pc":
        return GHBPrefetcher("pc")
    if name == "markov":
        return MarkovPrefetcher()
    if name == "streamer":
        return StreamPrefetcher()
    if name == "dart":
        if not tables:
            raise SystemExit("--tables <file.npz> is required for the dart prefetcher")
        from repro.runtime import ModelArtifact

        artifact = ModelArtifact.load(tables)
        info = artifact.describe()
        log.info(
            f"loaded tables v{info['version']} (config {info['config_hash']}, "
            f"{info['model']}) from {tables}"
        )
        for key, value in info.items():
            if key.startswith("meta."):
                log.info(f"  {key[5:]}: {value}")
        student_model = None
        if student:
            from repro.models import load_attention_predictor

            student_model = load_attention_predictor(student)
        # Serving geometry comes from the artifact itself (history length and
        # bitmap width are properties of the trained tables, not CLI
        # defaults); segment-bit knobs keep the repo defaults.
        mc = artifact.model_config
        config = PreprocessConfig(
            history_len=mc.history_len, delta_range=mc.bitmap_size // 2
        )
        return DARTPrefetcher(artifact, config, student=student_model)
    raise SystemExit(f"unknown prefetcher {name!r}")


def _cmd_simulate(args) -> int:
    from repro.sim import SimConfig, ipc_improvement, simulate
    from repro.traces import MemoryTrace, make_workload

    if args.trace:
        trace = MemoryTrace.load(args.trace)
    else:
        trace = make_workload(args.workload, scale=args.scale, seed=args.seed)
    cfg = SimConfig()
    base = simulate(trace, None, cfg, name="baseline")
    pf = _make_prefetcher(args.prefetcher, args.tables)
    rows = [["baseline", "-", f"{base.ipc:.3f}", "-", "-", f"{base.hit_rate:.2%}"]]
    if pf is not None:
        r = simulate(trace, pf, cfg)
        rows.append(
            [
                pf.name,
                str(pf.latency_cycles),
                f"{r.ipc:.3f} ({ipc_improvement(r, base):+.1%})",
                f"{r.accuracy:.2%}",
                f"{r.coverage(base.demand_misses):.2%}",
                f"{r.hit_rate:.2%}",
            ]
        )
    log.table(
        f"simulation of {trace.name or args.trace or args.workload} "
        f"({len(trace):,} accesses)",
        ["run", "pred latency", "IPC", "accuracy", "coverage", "hit rate"],
        rows,
    )
    return 0


def _stream_many(args) -> int:
    """``stream --cores N``: N interleaved trace shards, optionally sharing
    one model engine (``--share-model``) with cross-stream micro-batching.

    Sharding needs random access, so unlike the single-stream path this
    materializes the trace (``--chunk-size`` does not apply); to serve truly
    independent live streams without materializing, drive
    :class:`repro.runtime.MultiStreamEngine` handles directly.
    """
    import json

    from repro.runtime import as_streaming, serve_interleaved
    from repro.traces import load_any, make_workload

    n = args.cores
    trace = load_any(args.trace) if args.trace else make_workload(
        args.workload, scale=args.scale, seed=args.seed
    )
    bounds = [round(i * len(trace) / n) for i in range(n + 1)]
    shards = [trace.slice(bounds[i], bounds[i + 1]) for i in range(n)]
    trace_label = args.trace or args.workload

    pf = _make_prefetcher(args.prefetcher, args.tables)
    if pf is None:
        raise SystemExit("stream requires a prefetcher (try --prefetcher bo)")
    engine = None
    if args.share_model:
        if not hasattr(pf, "multistream"):
            raise SystemExit(
                "--share-model needs a model-backed prefetcher (--prefetcher dart)"
            )
        engine = pf.multistream(batch_size=args.batch_size, max_wait=args.max_wait)
        streams = engine.streams(n, names=[f"{pf.name}[{i}]" for i in range(n)])
    elif hasattr(pf, "multistream"):
        # Model-backed: each stream() gets private micro-batching state while
        # sharing the one loaded model — no N reloads of the tables file.
        streams = [
            pf.stream(batch_size=args.batch_size, max_wait=args.max_wait)
            for _ in range(n)
        ]
    else:
        # Rule-based state machines: a fresh prefetcher instance per shard so
        # per-stream predictor state stays private.
        streams = [
            as_streaming(
                _make_prefetcher(args.prefetcher, args.tables),
                batch_size=args.batch_size,
                max_wait=args.max_wait,
            )
            for _ in range(n)
        ]
    agg, per_stream, lists = serve_interleaved(streams, shards, collect=args.compare_batch)
    predict_calls = (
        engine.predict_calls
        if engine is not None
        else sum(getattr(s, "predict_calls", 0) for s in streams)
    )

    rows = [
        [s.name, f"{s.accesses:,}", f"{s.prefetches:,}",
         f"{s.p50_us:.1f}", f"{s.p99_us:.1f}", f"{s.max_us:.1f}"]
        for s in per_stream
    ]
    rows.append(
        ["aggregate", f"{agg.accesses:,}", f"{agg.prefetches:,}",
         f"{agg.p50_us:.1f}", f"{agg.p99_us:.1f}", f"{agg.max_us:.1f}"]
    )
    record = {
        "prefetcher": pf.name,
        "trace": trace_label,
        "cores": n,
        "share_model": bool(args.share_model),
        "batch_size": args.batch_size,
        "max_wait": args.max_wait,
        "predict_calls": predict_calls,
        "aggregate": agg.to_dict(),
        "per_stream": [s.to_dict() for s in per_stream],
    }
    if engine is not None:
        record["engine"] = engine.stats()
    identical = None
    if args.compare_batch:
        # Each shard must match its solo batch run. Model-backed batch
        # prediction is stateless, so the loaded model is reused; rule-based
        # reference runs need a fresh state machine per shard.
        def _reference(i):
            ref = pf if hasattr(pf, "multistream") else _make_prefetcher(
                args.prefetcher, args.tables
            )
            return ref.prefetch_lists(shards[i])

        identical = all(lists[i] == _reference(i) for i in range(n))
        rows.append(["bit-identical to solo batch", str(identical), "", "", "", ""])
        record["identical_to_batch"] = identical
    mode = "shared model" if args.share_model else "per-stream engines"
    log.table(
        f"{n}-stream serving of {trace_label} ({mode}, B={args.batch_size}, "
        f"{predict_calls} predict calls)",
        ["stream", "accesses", "prefetches", "p50 us", "p99 us", "max us"],
        rows,
    )
    print(f"throughput: {agg.throughput:,.0f} accesses/s across {n} streams")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"wrote serving stats to {args.json}")
    if identical is False:
        return 1
    return 0


def _stream_churn(args) -> int:
    """``stream --workers W --churn``: the elastic serving scenario.

    Serves N trace shards through a sharded fleet while injecting the full
    elastic lifecycle at scripted points — grow the fleet, live-migrate a
    stream, hot-swap the model (version bump), shrink back, admit a late
    tenant, close everything — and gates the run on bit-identity against the
    batch path. This is the CLI face of ``tests/test_elastic.py``.
    """
    import json

    from repro.traces import load_any, make_workload

    n = args.cores if args.cores > 1 else max(args.workers, 2)
    trace = load_any(args.trace) if args.trace else make_workload(
        args.workload, scale=args.scale, seed=args.seed
    )
    bounds = [round(i * len(trace) / (n + 1)) for i in range(n + 2)]
    shards = [trace.slice(bounds[i], bounds[i + 1]) for i in range(n + 1)]
    late_shard = shards.pop()  # admitted mid-serve
    trace_label = args.trace or args.workload

    pf = _make_prefetcher(args.prefetcher, args.tables)
    if pf is None or not hasattr(pf, "sharded"):
        raise SystemExit("--churn needs a model-backed prefetcher (--prefetcher dart)")
    engine = pf.sharded(
        workers=args.workers, batch_size=args.batch_size, max_wait=args.max_wait,
        ipc=args.ipc, pipeline_depth=args.pipeline_depth,
    )
    events: list[dict] = []
    length = min(len(s) for s in shards)
    marks = {
        length // 4: ("rescale", lambda: engine.rescale(args.workers + 1)),
        length // 2: ("migrate", lambda: engine.migrate_stream(
            handles[0], (handles[0].shard_id + 1) % engine.workers)),
        5 * length // 8: ("swap", lambda: engine.swap_model(
            pf.artifact.successor(pf.artifact.model, reason="churn rotate"))
            if getattr(pf, "artifact", None) is not None else None),
        3 * length // 4: ("rescale", lambda: engine.rescale(args.workers)),
    }
    with engine:
        handles = [engine.open_stream(f"tenant[{i}]") for i in range(n)]
        collected = [{} for _ in range(n + 1)]
        sources = list(shards)
        for i in range(length):
            if i == length // 3:  # late admission: a tenant arrives mid-serve
                handles.append(engine.open_stream("tenant[late]"))
                sources.append(late_shard)
                events.append({"at": i, "op": "open", "info": {
                    "stream": handles[-1].index, "worker": handles[-1].shard_id}})
            if i in marks:
                op, fn = marks[i]
                info = fn()
                events.append({"at": i, "op": op, "info": info})
            for k, (h, src) in enumerate(zip(handles, sources)):
                j = i if k < n else i - length // 3
                if 0 <= j < len(src):
                    for em in h.ingest(int(src.pcs[j]), int(src.addrs[j])):
                        collected[k][em.seq] = list(em.blocks)
        for k, h in enumerate(handles):
            for em in engine.close_stream(h):
                collected[k][em.seq] = list(em.blocks)
        stats = engine.stats()
    rows = [[str(e["at"]), e["op"],
             json.dumps(e["info"], default=str) if e["info"] else "-"]
            for e in events]
    log.table(
        f"elastic churn over {trace_label} (W={args.workers}, "
        f"B={args.batch_size}, {n}+1 tenants)",
        ["access #", "op", "detail"],
        rows,
    )
    el = stats["elastic"]
    print(
        f"lifecycle: {el['opened']} opened / {el['closed']} closed, "
        f"{el['migrations']} migrations, {el['rescales']} rescales, "
        f"{stats['swaps']} swaps (model v{stats['model_version']})"
    )
    identical = None
    if args.compare_batch:
        identical = True
        for k, src in enumerate(sources):
            served = len(collected[k])
            want = pf.prefetch_lists(src.slice(0, served))
            got = [collected[k].get(s) for s in range(served)]
            if got != want:
                identical = False
        print(f"bit-identical to batch under churn: {identical}")
    if args.json:
        record = {
            "prefetcher": pf.name, "trace": trace_label, "workers": args.workers,
            "batch_size": args.batch_size, "events": events, "engine": stats,
            "identical_to_batch": identical,
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True, default=str)
        print(f"wrote churn stats to {args.json}")
    return 0 if identical in (None, True) else 1


def _cmd_record(args) -> int:
    """``repro record``: capture a live serving session into a replayable trace.

    Serves N trace shards through a sharded fleet under a
    :class:`~repro.runtime.record.SessionRecorder` — by default with the full
    elastic churn scripted in (rescale, live migration, hot swap, late
    admission) — and writes the sealed ``DARTTRC1`` trace. ``repro replay``
    re-executes it under the behavioral contracts.
    """
    from repro.runtime import SessionRecorder
    from repro.traces import load_any, make_workload

    pf = _make_prefetcher(args.prefetcher, args.tables)
    if pf is None or not hasattr(pf, "sharded"):
        raise SystemExit("record needs a model-backed prefetcher (--prefetcher dart)")
    trace = load_any(args.trace) if args.trace else make_workload(
        args.workload, scale=args.scale, seed=args.seed
    )
    n = max(args.streams, 1)
    bounds = [round(i * len(trace) / (n + 1)) for i in range(n + 2)]
    shards = [trace.slice(bounds[i], bounds[i + 1]) for i in range(n + 1)]
    late_shard = shards.pop()  # admitted mid-serve under --churn
    length = min(len(s) for s in shards)

    recorder = SessionRecorder()
    engine = pf.sharded(
        workers=args.workers, batch_size=args.batch_size,
        ipc=args.ipc, pipeline_depth=args.pipeline_depth,
    )
    recorder.attach(engine, model=getattr(pf, "artifact", None))
    marks = {}
    if args.churn:
        marks = {
            length // 4: lambda: engine.rescale(args.workers + 1),
            length // 2: lambda: engine.migrate_stream(
                handles[0], (handles[0].shard_id + 1) % engine.workers),
            5 * length // 8: lambda: engine.swap_model(
                pf.artifact.successor(pf.artifact.model, reason="recorded churn"))
                if getattr(pf, "artifact", None) is not None else None,
            3 * length // 4: lambda: engine.rescale(args.workers),
        }
    with engine:
        handles = [engine.open_stream(f"tenant[{i}]") for i in range(n)]
        sources = list(shards)
        for i in range(length):
            if args.churn and i == length // 3:
                handles.append(engine.open_stream("tenant[late]"))
                sources.append(late_shard)
            if i in marks:
                marks[i]()
            for k, (h, src) in enumerate(zip(handles, sources)):
                j = i if k < n else i - length // 3
                if 0 <= j < len(src):
                    h.ingest(int(src.pcs[j]), int(src.addrs[j]))
        for h in handles:
            engine.close_stream(h)
    session = recorder.trace()
    nbytes = session.save(args.output)
    s = session.summary()
    meta = session.meta
    print(
        f"recorded {meta['engine']['column']} session: {len(session.stream_names)} "
        f"streams, {s['accesses']} accesses, {s['emissions']} emissions, "
        f"{len(meta['swaps'])} swaps, {len(session.models)} embedded model(s)"
    )
    print(f"wrote {args.output} ({nbytes:,} bytes)")
    return 0


def _cmd_replay(args) -> int:
    """``repro replay``: re-execute a recorded session under the contracts.

    Exits nonzero with the named contract on the first violation — the CI
    face of the golden-trace gate.
    """
    import json

    from repro.runtime import ContractViolation, SessionTrace
    from repro.runtime.replay import replay

    session = SessionTrace.load(args.trace)
    model = None
    if args.tables:
        from repro.runtime import ModelArtifact

        model = ModelArtifact.load(args.tables)
    try:
        report = replay(session, column=args.column, model=model)
    except ContractViolation as exc:
        print(f"REPLAY FAIL [{exc.contract}]: {exc}")
        return 1
    log.table(
        f"replayed {args.trace} on the {report.column} column",
        ["metric", "value"],
        [[k, f"{v:.4g}" if isinstance(v, float) else str(v)]
         for k, v in report.to_dict().items() if k != "contracts"],
    )
    print(f"contracts held: {', '.join(report.contracts)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        print(f"wrote replay report to {args.json}")
    return 0


def _stream_sharded(args) -> int:
    """``stream --workers W``: shard N streams across W OS worker processes.

    The table hierarchy is published once into shared memory; each worker
    maps it zero-copy and runs its own shared-model engine over its subset
    of the streams (see DESIGN.md "Sharded serving"). Defaults to one stream
    per worker when ``--cores`` was left at 1.
    """
    import json

    from repro.traces import load_any, make_workload

    n = args.cores if args.cores > 1 else args.workers
    trace = load_any(args.trace) if args.trace else make_workload(
        args.workload, scale=args.scale, seed=args.seed
    )
    bounds = [round(i * len(trace) / n) for i in range(n + 1)]
    shards = [trace.slice(bounds[i], bounds[i + 1]) for i in range(n)]
    trace_label = args.trace or args.workload

    pf = _make_prefetcher(args.prefetcher, args.tables)
    if pf is None or not hasattr(pf, "sharded"):
        raise SystemExit(
            "--workers needs a model-backed prefetcher (--prefetcher dart)"
        )
    engine = pf.sharded(
        workers=args.workers, batch_size=args.batch_size, max_wait=args.max_wait,
        ipc=args.ipc, pipeline_depth=args.pipeline_depth,
    )
    with engine:
        agg, per_stream, lists = engine.serve(shards, collect=args.compare_batch)
        stats = engine.stats()

    rows = [
        [s.name, f"{s.accesses:,}", f"{s.prefetches:,}",
         f"{s.p50_us:.1f}", f"{s.p99_us:.1f}", f"{s.max_us:.1f}"]
        for s in per_stream
    ]
    rows.append(
        ["aggregate", f"{agg.accesses:,}", f"{agg.prefetches:,}",
         f"{agg.p50_us:.1f}", f"{agg.p99_us:.1f}", f"{agg.max_us:.1f}"]
    )
    record = {
        "prefetcher": pf.name,
        "trace": trace_label,
        "cores": n,
        "workers": args.workers,
        "batch_size": args.batch_size,
        "max_wait": args.max_wait,
        "engine": stats,
        "aggregate": agg.to_dict(),
        "per_stream": [s.to_dict() for s in per_stream],
    }
    identical = None
    if args.compare_batch:
        identical = all(lists[i] == pf.prefetch_lists(shards[i]) for i in range(n))
        rows.append(["bit-identical to solo batch", str(identical), "", "", "", ""])
        record["identical_to_batch"] = identical
    shm_kb = (stats["shm_bytes"] or 0) / 1024
    log.table(
        f"{n}-stream serving of {trace_label} across {args.workers} worker "
        f"processes (B={args.batch_size}, {stats['predict_calls']} predict "
        f"calls, {shm_kb:.0f} KB shared tables)",
        ["stream", "accesses", "prefetches", "p50 us", "p99 us", "max us"],
        rows,
    )
    print(f"throughput: {agg.throughput:,.0f} accesses/s across {n} streams "
          f"/ {args.workers} workers")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"wrote serving stats to {args.json}")
    if identical is False:
        return 1
    return 0


def _cmd_stream(args) -> int:
    import json
    import time

    from repro.runtime import as_streaming, serve
    from repro.traces import iter_chunks, make_workload

    if args.batch_size < 1:
        raise SystemExit("--batch-size must be >= 1")
    if args.max_wait is not None and args.max_wait < 1:
        raise SystemExit("--max-wait must be >= 1")
    if args.chunk_size < 1:
        raise SystemExit("--chunk-size must be >= 1")
    if args.cores < 1:
        raise SystemExit("--cores must be >= 1")
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.adapt and args.cores > 1:
        raise SystemExit("--adapt currently serves a single stream (drop --cores)")
    if args.churn and args.workers < 2:
        raise SystemExit("--churn drives the elastic sharded fleet (add --workers W, W >= 2)")
    if args.workers > 1:
        if args.adapt:
            raise SystemExit("--adapt currently serves a single process (drop --workers)")
        if args.share_model:
            raise SystemExit(
                "--workers already shares the tables across all streams "
                "(drop --share-model)"
            )
        if args.churn:
            return _stream_churn(args)
        return _stream_sharded(args)
    if args.cores > 1:
        return _stream_many(args)
    if args.share_model:
        raise SystemExit("--share-model only makes sense with --cores N (N > 1)")
    if args.adapt and args.prefetcher != "dart":
        raise SystemExit("--adapt needs re-fittable tables (--prefetcher dart)")
    if args.adapt and args.compare_batch:
        raise SystemExit(
            "--adapt changes the served model mid-stream; the batch path "
            "cannot match it (drop --compare-batch)"
        )
    if args.trace:
        source = iter_chunks(args.trace, chunk_size=args.chunk_size)
        trace_label = args.trace
    else:
        source = make_workload(args.workload, scale=args.scale, seed=args.seed)
        trace_label = args.workload
    pf = _make_prefetcher(args.prefetcher, args.tables, args.student)
    if pf is None:
        raise SystemExit("stream requires a prefetcher (try --prefetcher bo)")
    stream_kwargs = {"batch_size": args.batch_size, "max_wait": args.max_wait}
    if args.adapt:
        if getattr(pf, "student", None) is None:
            raise SystemExit(
                "--adapt re-tabularizes the distilled student on drift: pass "
                "--student <file.npz> (saved by `repro train --save-student`)"
            )
        if args.adapt_window < 128:
            raise SystemExit("--adapt-window must be >= 128 accesses")
        from repro.runtime import AdaptationConfig

        # Scale the feature window with the corpus so small windows work.
        stream_kwargs["adapt"] = AdaptationConfig(
            window=args.adapt_window,
            feature_window=min(1024, args.adapt_window // 2),
        )
    stream = as_streaming(pf, **stream_kwargs)
    # Rule-based streams answer synchronously and ignore the batching knobs;
    # only report B for engines that actually micro-batch.
    effective_b = getattr(stream, "batch_size", None)
    stats, lists = serve(stream, source, collect=args.compare_batch)

    rows = [
        ["accesses", f"{stats.accesses:,}"],
        ["prefetches emitted", f"{stats.prefetches:,}"],
        ["wall time", f"{stats.seconds:.3f} s"],
        ["throughput", f"{stats.throughput:,.0f} accesses/s"],
        ["latency p50", f"{stats.p50_us:.1f} us"],
        ["latency p99", f"{stats.p99_us:.1f} us"],
        ["latency mean", f"{stats.mean_us:.1f} us"],
    ]
    record = stats.to_dict()
    record["prefetcher"] = pf.name
    record["trace"] = trace_label
    record["batch_size"] = effective_b
    fast_flushes = getattr(stream, "fast_path_flushes", None)
    if fast_flushes:
        # B=1 serving dispatches whole flushes through the single-query fast
        # path; surface how many so the latency numbers are attributable.
        rows.append(["fast-path flushes", f"{fast_flushes:,}"])
        record["fast_path_flushes"] = fast_flushes
    if args.adapt:
        summary = stream.adaptation_summary()
        record["adaptation"] = summary
        rows.append(["adaptations", str(summary["adaptations"])])
        rows.append(["model version", str(summary["version"])])
        mon = summary["monitor"]
        rows.append(["window accuracy", f"{mon['accuracy']:.2%}"])
        rows.append(["window coverage", f"{mon['coverage']:.2%}"])
        for ev in summary["events"]:
            if ev.get("outcome") == "swapped":
                rows.append([
                    f"swap @ {ev['seq']}",
                    f"v{ev['version']} ({ev['reason']}, drained {ev['drained']})",
                ])
    if args.compare_batch:
        # Batch reference needs the materialized trace; rebuild the source.
        from repro.traces import load_any

        trace = load_any(args.trace) if args.trace else source
        t0 = time.perf_counter()
        batch_lists = pf.prefetch_lists(trace)
        batch_seconds = time.perf_counter() - t0
        identical = batch_lists == lists
        rows.append(["batch path", f"{batch_seconds:.3f} s "
                     f"({len(trace) / batch_seconds:,.0f} accesses/s)"])
        rows.append(["bit-identical to batch", str(identical)])
        record["batch_seconds"] = batch_seconds
        record["batch_throughput"] = len(trace) / batch_seconds
        record["identical_to_batch"] = identical
    batch_note = f" (B={effective_b})" if effective_b is not None else " (synchronous)"
    log.table(
        f"streaming {pf.name} over {trace_label}{batch_note}",
        ["metric", "value"],
        rows,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
        print(f"wrote serving stats to {args.json}")
    if args.compare_batch and not record["identical_to_batch"]:
        return 1
    return 0


def _cmd_configure(args) -> int:
    from repro.prefetch import configure_dart

    c = configure_dart(args.latency_budget, args.storage_budget)
    print(f"best configuration under (tau={args.latency_budget} cycles, "
          f"s={args.storage_budget} bytes):")
    print(f"  {c.summary()}")
    return 0


def _load_trace(args):
    from repro.traces import MemoryTrace, make_workload

    if getattr(args, "trace", None):
        return MemoryTrace.load(args.trace)
    return make_workload(args.workload, scale=args.scale, seed=args.seed)


def _cmd_hierarchy(args) -> int:
    from repro.sim import HierarchyConfig, ipc_improvement, simulate_hierarchy

    trace = _load_trace(args)
    cfg = HierarchyConfig(paging=not args.no_paging, tlb=args.tlb)
    if args.replacement:
        cfg = cfg.with_replacement(args.replacement)
    base = simulate_hierarchy(trace, None, cfg, name="baseline")
    rows = [
        ["baseline", f"{base.sim.ipc:.3f}", "-",
         f"{base.l1d.hit_rate:.2%}", f"{base.l2.hit_rate:.2%}",
         f"{base.llc.hit_rate:.2%}", f"{base.dram['row_hit_rate']:.2%}"]
    ]
    pf = _make_prefetcher(args.prefetcher, args.tables)
    if pf is not None:
        r = simulate_hierarchy(trace, pf, cfg)
        rows.append(
            [pf.name, f"{r.sim.ipc:.3f}", f"{ipc_improvement(r.sim, base.sim):+.1%}",
             f"{r.l1d.hit_rate:.2%}", f"{r.l2.hit_rate:.2%}",
             f"{r.llc.hit_rate:.2%}", f"{r.dram['row_hit_rate']:.2%}"]
        )
    log.table(
        f"hierarchy simulation of {trace.name or 'trace'} ({len(trace):,} accesses)",
        ["run", "IPC", "ΔIPC", "L1D hit", "L2 hit", "LLC hit", "DRAM row hit"],
        rows,
    )
    return 0


def _cmd_multicore(args) -> int:
    from repro.sim import HierarchyConfig
    from repro.sim.multicore import simulate_multicore
    from repro.traces import make_workload

    traces = [
        make_workload(w, scale=args.scale, seed=args.seed + i)
        for i, w in enumerate(args.workloads)
    ]
    cfg = HierarchyConfig()
    if args.replacement:
        cfg = cfg.with_replacement(args.replacement)
    if args.share_model:
        shared = _make_prefetcher(args.prefetcher, args.tables)
        if shared is None or not hasattr(shared, "multistream"):
            raise SystemExit(
                "--share-model needs a model-backed prefetcher (--prefetcher dart)"
            )
        r = simulate_multicore(traces, config=cfg, shared_prefetcher=shared)
    else:
        pf = [_make_prefetcher(args.prefetcher, args.tables) for _ in traces]
        r = simulate_multicore(traces, prefetchers=pf, config=cfg)
    rows = [
        [c.name, f"{c.ipc:.3f}", f"{c.accuracy:.2%}", str(c.prefetches_issued)]
        for c in r.cores
    ]
    rows.append(["aggregate", f"{r.aggregate_ipc:.3f}", "-", "-"])
    title = f"{len(traces)}-core simulation (shared LLC + DRAM)"
    if r.predictor:
        title += (
            f" — shared {r.predictor['name']}: 1 model copy, "
            f"{r.predictor['predict_calls']} predict calls"
        )
    log.table(title, ["core", "IPC", "pf accuracy", "pf issued"], rows)
    return 0


def _cmd_contend(args) -> int:
    import json

    from repro.runtime import AdmissionConfig, AdmissionController, as_streaming
    from repro.sim import (
        ContentionConfig,
        LevelConfig,
        PoisonedStream,
        simulate_contention,
    )
    from repro.traces import make_workload

    traces = [
        make_workload(w, scale=args.scale, seed=args.seed + i)
        for i, w in enumerate(args.workloads)
    ]
    policy = args.replacement or "plru"
    cfg = ContentionConfig(
        l1=LevelConfig(16 * 1024, 4, 4.0, policy=policy),
        l2=LevelConfig(256 * 1024, 8, 12.0, policy=policy),
        slots_per_cycle=args.slots,
        prefetch_level=args.prefetch_level,
    )

    streams = []
    for _ in traces:
        pf = _make_prefetcher(args.prefetcher, args.tables)
        streams.append(None if pf is None else as_streaming(pf))
    for idx in args.poison or []:
        if not 0 <= idx < len(streams) or streams[idx] is None:
            raise SystemExit(f"--poison {idx}: no such prefetching tenant")
        streams[idx] = PoisonedStream(streams[idx], degree=args.poison_degree)
    controller = None
    if args.throttle:
        controller = AdmissionController(
            AdmissionConfig(
                floor=args.floor, recover=args.recover, lookahead=args.lookahead
            )
        )
        streams = [
            controller.wrap(s, f"tenant{i}") if s is not None else None
            for i, s in enumerate(streams)
        ]

    res = simulate_contention(traces, streams, cfg)
    rows = []
    for i, (w, t) in enumerate(zip(args.workloads, res.tenants)):
        state = controller.state(f"tenant{i}") if controller and streams[i] else "-"
        poisoned = "*" if args.poison and i in args.poison else ""
        rows.append([
            f"{i}: {w}{poisoned}", f"{t.sim.ipc:.3f}",
            f"{t.l1.hit_rate:.2%}", f"{t.l2.hit_rate:.2%}",
            str(t.sim.prefetches_issued), str(res.inflicted(i)),
            str(res.suffered(i)), state,
        ])
    rows.append([
        "aggregate", f"{res.aggregate_ipc:.3f}", "-",
        f"{res.l2.hit_rate:.2%}", "-", "-", "-", "-",
    ])
    title = (
        f"{len(traces)}-tenant contention world (shared {policy.upper()} L2, "
        f"{args.slots} slot/cycle, prefetch->{args.prefetch_level}"
        + (", throttled" if args.throttle else "") + ")"
    )
    log.table(
        title,
        ["tenant", "IPC", "L1 hit", "L2 demand hit", "pf issued",
         "pollution inflicted", "suffered", "throttle"],
        rows,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(res.summary(), f, indent=2, sort_keys=True)
        print(f"wrote contention summary to {args.json}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.sim import SimConfig, opt_miss_rate, replacement_headroom, simulate
    from repro.traces import trace_statistics

    trace = _load_trace(args)
    stats = trace_statistics(trace)
    cfg = SimConfig()
    base = simulate(trace, None, cfg)
    opt = opt_miss_rate(trace, cfg.llc_capacity_bytes, cfg.llc_ways)
    head = replacement_headroom(trace, base.demand_misses, cfg.llc_capacity_bytes, cfg.llc_ways)
    log.table(
        f"analysis of {trace.name or 'trace'}",
        ["metric", "value"],
        [[k, v] for k, v in stats.items() if k != "name"]
        + [
            ["LRU miss rate", f"{base.demand_misses / max(len(trace), 1):.2%}"],
            ["OPT miss rate", f"{opt:.2%}"],
            ["replacement headroom", f"{head['headroom']:.2%}"],
        ],
    )
    return 0


def _cmd_export(args) -> int:
    from repro.runtime import ModelArtifact
    from repro.tabularization import export_packed, packed_info

    if args.info:
        # Provenance report for either container: the packed .bin (header
        # only — no table materialization) or the tables .npz (full load).
        try:
            info = packed_info(args.tables)
            attrs = info.pop("attrs", {})
            artifact = attrs.pop("artifact", None)
            rows = [[k, str(v)] for k, v in sorted({**info, **attrs}.items())]
            if artifact:
                rows.append(["artifact version", str(artifact.get("version"))])
                for k, v in sorted(artifact.get("metadata", {}).items()):
                    rows.append([f"meta.{k}", str(v)])
        except ValueError:
            artifact = ModelArtifact.load(args.tables)
            rows = [[k, str(v)] for k, v in artifact.describe().items()]
        log.table(f"artifact info for {args.tables}", ["field", "value"], rows)
        return 0
    if not args.output:
        raise SystemExit("export needs an output path (or --info to inspect)")
    artifact = ModelArtifact.load(args.tables)
    nbytes = export_packed(artifact, args.output, float_dtype=args.float_dtype)
    print(f"exported {args.tables} (v{artifact.version}) -> {args.output} "
          f"({nbytes:,} bytes, {args.float_dtype})")
    return 0


def _cmd_registry(args) -> int:
    from repro.registry import FilesystemRemote, ModelRegistry
    from repro.runtime import ModelArtifact

    remote = (
        FilesystemRemote(args.remote) if getattr(args, "remote", None) else None
    )
    reg = ModelRegistry(args.root, remote=remote)
    if args.verb == "put":
        artifact = ModelArtifact.load(args.tables)
        digest = reg.put(artifact, parent=args.parent, name=args.name)
        m = reg.manifest(digest)
        tail = f" -> ref {args.name}" if args.name else ""
        print(f"{digest}  artifact v{m['artifact_version']} stored as "
              f"{m['kind']} ({m['payload_bytes']:,} payload bytes){tail}")
    elif args.verb == "log":
        rows = [
            [m["digest"][:12], str(m["artifact_version"]), m["kind"],
             f"{m['payload_bytes']:,}", (m["parent"] or "")[:12]]
            for m in reg.log(args.ref)
        ]
        log.table(
            f"lineage of {args.ref} (newest first)",
            ["version", "artifact", "kind", "payload bytes", "parent"],
            rows,
        )
    elif args.verb == "checkout":
        artifact = reg.checkout(args.ref, args.output)
        print(f"checked out {args.ref} (artifact v{artifact.version}) "
              f"-> {args.output}")
    elif args.verb == "push":
        r = reg.push(args.ref)
        print(f"pushed {r['head'][:12]}… to {args.remote}: "
              f"{r['pushed']} objects uploaded, {r['skipped']} already there")
    elif args.verb == "pull":
        r = reg.pull(args.ref)
        print(f"pulled {r['head'][:12]}… from {args.remote}: "
              f"{r['pulled']} objects fetched, {r['skipped']} already cached")
    return 0


def _cmd_report(args) -> int:
    from repro.core.report import ShootoutSpec, generate_report

    doc = generate_report(
        trace_scale=args.scale,
        shootout=ShootoutSpec(apps=tuple(args.apps), scale=args.scale),
        output=args.output,
    )
    if args.output:
        print(f"wrote campaign report to {args.output} ({len(doc):,} chars)")
    else:
        print(doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.sim import policy_names

    parser = argparse.ArgumentParser(
        prog="repro", description="DART reproduction command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="generate a synthetic workload trace")
    p_trace.add_argument("workload", help="e.g. 462.libquantum")
    p_trace.add_argument("--scale", type=float, default=1.0)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--output", "-o", default=None, help="write trace .npz here")
    p_trace.set_defaults(func=_cmd_trace)

    p_train = sub.add_parser("train", help="run the DART pipeline, save tables")
    p_train.add_argument("--workload", default="462.libquantum")
    p_train.add_argument("--trace", default=None, help="load trace .npz instead")
    p_train.add_argument("--scale", type=float, default=0.05)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--epochs", type=int, default=3)
    p_train.add_argument("--max-samples", type=int, default=3000)
    p_train.add_argument("--teacher-layers", type=int, default=2)
    p_train.add_argument("--teacher-dim", type=int, default=64)
    p_train.add_argument("--teacher-heads", type=int, default=4)
    p_train.add_argument("--latency-budget", type=float, default=100.0)
    p_train.add_argument("--storage-budget", type=float, default=1_000_000.0)
    p_train.add_argument("--output", "-o", default=None, help="write tables .npz here")
    p_train.add_argument("--save-student", default=None,
                         help="also save the distilled student NN .npz "
                              "(required later for `stream --adapt`)")
    p_train.set_defaults(func=_cmd_train)

    p_sim = sub.add_parser("simulate", help="simulate a prefetcher on a trace")
    p_sim.add_argument("--workload", default="462.libquantum")
    p_sim.add_argument("--trace", default=None)
    p_sim.add_argument("--scale", type=float, default=0.1)
    p_sim.add_argument("--seed", type=int, default=2)
    p_sim.add_argument("--prefetcher", choices=PREFETCHER_CHOICES, default="bo")
    p_sim.add_argument("--tables", default=None, help="tables .npz for --prefetcher dart")
    p_sim.set_defaults(func=_cmd_simulate)

    p_str = sub.add_parser("stream", help="serve a trace through the online runtime")
    p_str.add_argument("--workload", default="462.libquantum")
    p_str.add_argument("--trace", default=None, help="trace file (.npz/.csv/.txt[.gz])")
    p_str.add_argument("--scale", type=float, default=0.1)
    p_str.add_argument("--seed", type=int, default=2)
    p_str.add_argument("--prefetcher", choices=PREFETCHER_CHOICES, default="bo")
    p_str.add_argument("--tables", default=None, help="tables .npz for --prefetcher dart")
    p_str.add_argument("--batch-size", type=int, default=64, help="micro-batch size B")
    p_str.add_argument("--max-wait", type=int, default=None,
                       help="flush when the oldest query waited this many accesses")
    p_str.add_argument("--chunk-size", type=int, default=65536,
                       help="trace-file ingestion chunk (accesses)")
    p_str.add_argument("--cores", type=int, default=1,
                       help="serve N interleaved trace shards (concurrent "
                            "streams; materializes the trace to shard it)")
    p_str.add_argument("--share-model", action="store_true",
                       help="one shared model engine for all streams "
                            "(cross-stream micro-batching; model-backed only)")
    p_str.add_argument("--workers", type=int, default=1,
                       help="serve the streams across W OS worker processes, "
                            "tables mapped zero-copy from shared memory "
                            "(model-backed only; default streams = workers "
                            "unless --cores is given)")
    p_str.add_argument("--churn", action="store_true",
                       help="with --workers W: run the elastic scenario "
                            "(mid-serve open/close, live migration, rescale, "
                            "hot swap) instead of a fixed-fleet serve")
    p_str.add_argument("--ipc", choices=["pipe", "ring"], default="pipe",
                       help="with --workers W: data-plane transport — 'ring' "
                            "moves access/emission frames onto lock-free "
                            "shared-memory rings (control stays on the pipe)")
    p_str.add_argument("--pipeline-depth", type=int, default=1,
                       help="with --workers W: data-plane credit window — up "
                            "to D chunks in flight per worker (1 = lockstep; "
                            "deeper overlaps worker compute with the "
                            "frontend and with other workers)")
    p_str.add_argument("--compare-batch", action="store_true",
                       help="also run prefetch_lists and check bit-identity")
    p_str.add_argument("--adapt", action="store_true",
                       help="drift-aware serving: monitor the stream, re-fit "
                            "the tables on drift, hot-swap (needs --student)")
    p_str.add_argument("--adapt-window", type=int, default=4096,
                       help="accesses retained as the re-fitting window")
    p_str.add_argument("--student", default=None,
                       help="distilled student .npz (from `train --save-student`)")
    p_str.add_argument("--json", default=None, help="write serving stats JSON here")
    p_str.set_defaults(func=_cmd_stream)

    p_rec = sub.add_parser(
        "record", help="capture a live serving session into a replayable trace"
    )
    p_rec.add_argument("--workload", default="462.libquantum")
    p_rec.add_argument("--trace", default=None, help="trace file (.npz/.csv/.txt[.gz])")
    p_rec.add_argument("--scale", type=float, default=0.05)
    p_rec.add_argument("--seed", type=int, default=2)
    p_rec.add_argument("--prefetcher", choices=PREFETCHER_CHOICES, default="dart")
    p_rec.add_argument("--tables", default=None, help="tables .npz for --prefetcher dart")
    p_rec.add_argument("--workers", type=int, default=2)
    p_rec.add_argument("--streams", type=int, default=2,
                       help="trace shards served as concurrent streams")
    p_rec.add_argument("--batch-size", type=int, default=32)
    p_rec.add_argument("--ipc", choices=["pipe", "ring"], default="pipe")
    p_rec.add_argument("--pipeline-depth", type=int, default=1)
    p_rec.add_argument("--no-churn", dest="churn", action="store_false",
                       help="skip the scripted elastic churn (migrate / "
                            "rescale / hot swap / late admission)")
    p_rec.add_argument("--output", "-o", required=True,
                       help="DARTTRC1 session trace destination")
    p_rec.set_defaults(func=_cmd_record)

    p_rpl = sub.add_parser(
        "replay",
        help="re-execute a recorded session under the behavioral contracts",
    )
    p_rpl.add_argument("trace", help="DARTTRC1 session trace (from `repro record`)")
    p_rpl.add_argument("--column", default=None,
                       help="replay engine column (default: the recorded one; "
                            "e.g. multistream, sharded, sharded-pipelined-ring)")
    p_rpl.add_argument("--tables", default=None,
                       help="boot-model .npz override (defaults to the model "
                            "embedded in the trace)")
    p_rpl.add_argument("--json", default=None, help="write the replay report here")
    p_rpl.set_defaults(func=_cmd_replay)

    p_cfg = sub.add_parser("configure", help="query the table configurator")
    p_cfg.add_argument("latency_budget", type=float)
    p_cfg.add_argument("storage_budget", type=float)
    p_cfg.set_defaults(func=_cmd_configure)

    p_hier = sub.add_parser(
        "hierarchy", help="full L1D/L2/LLC + banked-DRAM simulation"
    )
    p_hier.add_argument("--workload", default="462.libquantum")
    p_hier.add_argument("--trace", default=None)
    p_hier.add_argument("--scale", type=float, default=0.1)
    p_hier.add_argument("--seed", type=int, default=2)
    p_hier.add_argument("--prefetcher", choices=PREFETCHER_CHOICES, default="bo")
    p_hier.add_argument("--tables", default=None)
    p_hier.add_argument("--no-paging", action="store_true", help="skip virtual->physical")
    p_hier.add_argument("--tlb", action="store_true", help="model a 64-entry data TLB")
    p_hier.add_argument("--replacement", choices=policy_names(), default=None,
                        help="replacement policy for every cache level "
                             "(default: per-level config, LRU)")
    p_hier.set_defaults(func=_cmd_hierarchy)

    p_mc = sub.add_parser("multicore", help="N cores sharing one LLC and DRAM")
    p_mc.add_argument("workloads", nargs="+", help="one workload name per core")
    p_mc.add_argument("--scale", type=float, default=0.05)
    p_mc.add_argument("--seed", type=int, default=2)
    p_mc.add_argument("--prefetcher", choices=PREFETCHER_CHOICES, default="none")
    p_mc.add_argument("--tables", default=None, help="tables .npz for --prefetcher dart")
    p_mc.add_argument("--share-model", action="store_true",
                      help="serve all cores from one shared model "
                           "(cross-core micro-batching; model-backed only)")
    p_mc.add_argument("--replacement", choices=policy_names(), default=None,
                      help="replacement policy for every cache level")
    p_mc.set_defaults(func=_cmd_multicore)

    p_con = sub.add_parser(
        "contend",
        help="multi-tenant contention: private L1s, one shared L2, "
             "bandwidth-limited interconnect, optional admission throttle",
    )
    p_con.add_argument("workloads", nargs="+", help="one workload name per tenant")
    p_con.add_argument("--scale", type=float, default=0.02)
    p_con.add_argument("--seed", type=int, default=2)
    p_con.add_argument("--prefetcher", choices=PREFETCHER_CHOICES, default="stride")
    p_con.add_argument("--tables", default=None, help="tables .npz for --prefetcher dart")
    p_con.add_argument("--poison", type=int, action="append", metavar="TENANT",
                       help="garble this tenant's predictions (repeatable)")
    p_con.add_argument("--poison-degree", type=int, default=8)
    p_con.add_argument("--throttle", action="store_true",
                       help="wrap every tenant in the accuracy-driven "
                            "admission controller")
    p_con.add_argument("--floor", type=float, default=0.25,
                       help="accuracy below which a tenant escalates")
    p_con.add_argument("--recover", type=float, default=0.40,
                       help="accuracy at which a tenant de-escalates")
    p_con.add_argument("--lookahead", type=int, default=16,
                       help="accuracy horizon in accesses")
    p_con.add_argument("--slots", type=int, default=1,
                       help="interconnect grants per cycle")
    p_con.add_argument("--prefetch-level", choices=["l1", "l2"], default="l2")
    p_con.add_argument("--replacement", choices=policy_names(), default=None,
                       help="L1/L2 replacement policy (default plru)")
    p_con.add_argument("--json", default=None, help="write the full summary here")
    p_con.set_defaults(func=_cmd_contend)

    p_an = sub.add_parser("analyze", help="trace statistics + OPT replacement headroom")
    p_an.add_argument("--workload", default="462.libquantum")
    p_an.add_argument("--trace", default=None)
    p_an.add_argument("--scale", type=float, default=0.05)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.set_defaults(func=_cmd_analyze)

    p_exp = sub.add_parser("export", help="pack trained tables into a binary blob")
    p_exp.add_argument("tables", help="tables .npz from `repro train`, or a "
                                      "packed .bin with --info")
    p_exp.add_argument("output", nargs="?", default=None, help="packed .bin destination")
    p_exp.add_argument(
        "--float-dtype", choices=["float64", "float32", "float16"], default="float32"
    )
    p_exp.add_argument("--info", action="store_true",
                       help="print the blob's version/config/metadata and exit")
    p_exp.set_defaults(func=_cmd_export)

    p_reg = sub.add_parser(
        "registry",
        help="content-addressed model registry (put/log/checkout/push/pull)",
    )
    reg_sub = p_reg.add_subparsers(dest="verb", required=True)

    def _reg(verb: str, help: str):
        p = reg_sub.add_parser(verb, help=help)
        p.add_argument("--root", required=True, help="local registry directory")
        p.set_defaults(func=_cmd_registry)
        return p

    rp = _reg("put", "publish a tables/artifact .npz as a registry version")
    rp.add_argument("tables", help="artifact .npz (from train / checkout)")
    rp.add_argument("--name", default=None, help="ref to advance to the new version")
    rp.add_argument("--parent", default=None,
                    help="ref/digest to delta-encode against (lineage parent)")
    rl = _reg("log", "version lineage of a ref/digest, newest first")
    rl.add_argument("ref")
    rc = _reg("checkout", "materialize a version as a standalone .npz")
    rc.add_argument("ref")
    rc.add_argument("--output", "-o", required=True, help="destination .npz")
    rh = _reg("push", "upload a version's lineage to a filesystem remote")
    rh.add_argument("ref")
    rh.add_argument("--remote", required=True, help="remote registry directory")
    ru = _reg("pull", "fetch a version's lineage from a filesystem remote")
    ru.add_argument("ref")
    ru.add_argument("--remote", required=True, help="remote registry directory")

    p_rep = sub.add_parser("report", help="markdown campaign report (training-free)")
    p_rep.add_argument("--scale", type=float, default=0.02)
    p_rep.add_argument("--apps", nargs="+", default=["462.libquantum", "602.gcc"])
    p_rep.add_argument("--output", "-o", default=None)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

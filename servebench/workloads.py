"""The closed-loop serving workloads and the sliced measurement loop.

One load-generating process drives every workload. Each access is sent only
after the call carrying the previous one returned (a closed loop: a core's
miss stream waits on each ``ingest``). The generator records, per stream, the
start of the ``ingest`` that fed each access and the return of the
``ingest``, ``poll`` or ``flush`` call that delivered its emission; the gap
is that access's response time.

Times are read on a *workload clock* that stops while the host probe runs
(:mod:`servebench.hostnorm`), so a query pending across a probe slice is not
charged for the probe.

* ``b1-single`` — one stream through ``dart.stream(batch_size=1)``: every
  flush is one query, served by the single-query fast path.
* ``b32-multi`` — 8 streams into one ``MultiStreamEngine`` (B=32,
  ``max_wait``=8). Activity runs in phases of 1 to 8 active streams, so
  deadline flushes fill batches from a few queries up to B.
* ``w2-sharded`` — 4 streams over ``ShardedEngine(workers=2, ipc="pipe")``,
  driven access by access through handles; every 2,048 accesses the model
  is swapped and two streams on different workers exchange homes (two
  migrations). Each swap installs a deep
  copy of the same tables, so the oracle is unchanged while publish, drain
  and worker re-attach all run.
"""

from __future__ import annotations

import copy
import random
import time

perf = time.perf_counter

WORKLOADS = ("b1-single", "b32-multi", "w2-sharded")
#: served trace: 602.gcc at this scale per stream (far more accesses than a
#: run serves; a run that exhausts a stream ends early and says so)
STREAM_SCALE = {"b1-single": 0.5, "b32-multi": 0.15, "w2-sharded": 0.25}
#: accesses per workload slice (~50 ms each on a 2-CPU Xeon VM)
SLICE_ACCESSES = {"b1-single": 100, "b32-multi": 128, "w2-sharded": 256}
#: untimed slices served before the first timed slice
WARMUP_SLICES = 2
#: timed metrics are medians over windows of this many slices. A window
#: holds at least 1,024 accesses (a p99 with at least ten samples beyond
#: it) and whole periods of the workload's schedule: two b32-multi phase
#: cycles, one w2-sharded swap and one migration.
WINDOW_SLICES = {"b1-single": 11, "b32-multi": 14, "w2-sharded": 8}
MIN_WINDOW_ACCESSES = 1024

B32_BATCH, B32_MAX_WAIT, B32_STREAMS = 32, 8, 8
#: active-stream counts of the b32-multi phases, and accesses per phase
B32_PHASES = (1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2)
B32_PHASE_ACCESSES = 64

W2_WORKERS, W2_STREAMS, W2_BATCH, W2_MAX_WAIT = 2, 4, 32, 8
#: Lockstep data plane (one chunk in flight). With two chunks in flight the
#: frontend and both workers compete for a 2-CPU host, and normalized
#: throughput still spread by 15% between runs; in lockstep one process
#: runs at a time and it spread by 4%.
W2_IO_CHUNK, W2_DEPTH = 64, 1
#: control-plane schedule, in accesses served: a swap at every multiple of
#: the period, two migrations (an exchange) half a period later
W2_CONTROL_PERIOD = 2048


def b32_schedule(seed: int, n_streams: int = B32_STREAMS):
    """Endless stream-index sequence for b32-multi.

    Phase ``k`` draws each access uniformly from ``k`` active streams; the
    active window rotates between phases so every stream gets a share.
    """
    rng = random.Random(seed)
    offset = 0
    while True:
        for k in B32_PHASES:
            active = [(offset + j) % n_streams for j in range(k)]
            for _ in range(B32_PHASE_ACCESSES):
                yield active[rng.randrange(k)]
            offset = (offset + 3) % n_streams


def uniform_schedule(seed: int, n_streams: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(n_streams)


class Driver:
    """Per-stream access lists, delivery records and response samples."""

    def __init__(self, traces):
        #: per stream: (pcs, addrs) as Python lists
        self.pcs = [pcs for pcs, _ in traces]
        self.addrs = [addrs for _, addrs in traces]
        self.pos = [0] * len(traces)
        #: workload-clock start of the ingest that fed each access, per stream
        self.starts: list[list[float]] = [[] for _ in traces]
        #: (seq, blocks) in delivery order, per stream
        self.got: list[list] = [[] for _ in traces]
        #: response-time samples (workload-clock seconds), one list per slice
        self.slice_resp: list[list[float]] = []
        self.resp: list[float] = []
        #: control-plane calls attempted and the ones that raised
        self.control_attempted = 0
        self.control_failures: list[str] = []
        self.exhausted = False

    def begin_slice(self) -> None:
        self.resp = []
        self.slice_resp.append(self.resp)

    def drop_samples(self) -> None:
        """Forget the response samples taken so far (warm-up)."""
        self.slice_resp = []
        self.resp = []

    def _deliver(self, s: int, ems, t_end: float) -> None:
        got, starts, resp = self.got[s], self.starts[s], self.resp
        n = len(starts)
        for em in ems:
            seq = em.seq
            got.append((seq, em.blocks))
            if 0 <= seq < n:
                resp.append(t_end - starts[seq])

    @property
    def accesses(self) -> int:
        return sum(self.pos)

    def serve(self, n: int, off: float) -> int:
        raise NotImplementedError

    def finish(self, off: float) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class B1Single(Driver):
    def __init__(self, dart, traces, tracer=None):
        super().__init__(traces)
        self.engine = dart.stream(batch_size=1)
        self.ingest = self.engine.ingest
        self.flush = self.engine.flush
        if tracer is not None:
            self.ingest = tracer.wrap("serve.ingest", self.ingest)
            self.flush = tracer.wrap("serve.flush", self.flush)

    def serve(self, n: int, off: float) -> int:
        ingest, pcs, addrs = self.ingest, self.pcs[0], self.addrs[0]
        starts, got, resp = self.starts[0], self.got[0], self.resp
        i0 = i = self.pos[0]
        stop = min(i + n, len(pcs))
        while i < stop:
            t0 = perf()
            ems = ingest(pcs[i], addrs[i])
            t1 = perf() - off
            starts.append(t0 - off)
            for em in ems:
                seq = em.seq
                got.append((seq, em.blocks))
                if 0 <= seq <= i:
                    resp.append(t1 - starts[seq])
            i += 1
        self.pos[0] = i
        if i == len(pcs):
            self.exhausted = True
        return i - i0

    def finish(self, off: float) -> None:
        ems = self.flush()
        self._deliver(0, ems, perf() - off)

    def counters(self) -> dict:
        return {"predict_calls": self.engine.predict_calls,
                "fast_path_flushes": self.engine.fast_path_flushes}


class B32Multi(Driver):
    def __init__(self, dart, traces, seed: int, tracer=None):
        super().__init__(traces)
        self.engine = dart.multistream(batch_size=B32_BATCH, max_wait=B32_MAX_WAIT)
        self.handles = self.engine.streams(len(traces))
        self.ingests = [h.ingest for h in self.handles]
        self.polls = [h.poll for h in self.handles]
        self.flush_all = self.engine.flush_all
        if tracer is not None:
            self.ingests = [tracer.wrap("serve.ingest", f) for f in self.ingests]
            self.polls = [tracer.wrap("serve.poll", f) for f in self.polls]
            self.flush_all = tracer.wrap("serve.flush", self.flush_all)
        self.schedule = b32_schedule(seed, len(traces))
        self._calls = self.engine.predict_calls

    def serve(self, n: int, off: float) -> int:
        engine, sched, ingests, polls = self.engine, self.schedule, self.ingests, self.polls
        pcs, addrs, pos, starts = self.pcs, self.addrs, self.pos, self.starts
        deliver = self._deliver
        served = 0
        calls = self._calls
        n_streams = len(ingests)
        while served < n:
            s = next(sched)
            i = pos[s]
            if i >= len(pcs[s]):
                self.exhausted = True
                break
            t0 = perf()
            ems = ingests[s](pcs[s][i], addrs[s][i])
            now = engine.predict_calls
            parked = None
            if now != calls:
                # A flush answered queries of other streams too: collect
                # them now, so their response ends at this call.
                calls = now
                parked = [polls[j]() for j in range(n_streams)]
            t1 = perf() - off
            starts[s].append(t0 - off)
            pos[s] = i + 1
            served += 1
            if ems:
                deliver(s, ems, t1)
            if parked is not None:
                for j, pems in enumerate(parked):
                    if pems:
                        deliver(j, pems, t1)
        self._calls = calls
        return served

    def finish(self, off: float) -> None:
        self.flush_all()
        parked = [poll() for poll in self.polls]
        t1 = perf() - off
        for j, pems in enumerate(parked):
            self._deliver(j, pems, t1)
        self._calls = self.engine.predict_calls

    def counters(self) -> dict:
        return {"predict_calls": self.engine.predict_calls,
                "fast_path_flushes": self.engine.fast_path_flushes}


class W2Sharded(Driver):
    def __init__(self, dart, traces, seed: int, swap_models, tracer=None):
        super().__init__(traces)
        self.tracer = tracer
        self.engine = dart.sharded(
            workers=W2_WORKERS, batch_size=W2_BATCH, max_wait=W2_MAX_WAIT,
            io_chunk=W2_IO_CHUNK, pipeline_depth=W2_DEPTH, ipc="pipe",
        )
        try:
            self.handles = self.engine.streams(len(traces))
            self.engine.start()
        except BaseException:
            self.engine.close()
            raise
        #: swap targets, installed in turn
        self.models = list(swap_models)
        self.swaps_done = 0
        self.migrations = 0
        self.schedule = uniform_schedule(seed, len(traces))
        self.ingests = [h.ingest for h in self.handles]
        self.polls = [h.poll for h in self.handles]
        #: accesses buffered per worker since its last dispatch (trace only:
        #: names the ingest spans that shipped a chunk)
        self._buffered = [0] * W2_WORKERS
        self.migrate_s: list[float] = []
        self.swap_s: list[float] = []
        self.swap_drained: list[int] = []
        self.snapshot_bytes: list[int] = []

    def _ingest_traced(self, s: int, pc: int, addr: int):
        h = self.handles[s]
        w = h.shard_id
        self._buffered[w] += 1
        if self._buffered[w] >= W2_IO_CHUNK:
            self._buffered[w] = 0
            return self.tracer.call("runtime.dispatch", h.ingest, pc, addr)
        return self.tracer.call("serve.ingest", h.ingest, pc, addr)

    def _control(self, what: str, fn, *args):
        self.control_attempted += 1
        t0 = perf()
        try:
            if self.tracer is not None:
                out = self.tracer.call(f"control.{what}", fn, *args)
            else:
                out = fn(*args)
        except Exception as exc:  # a failed control call is a failed operation
            self.control_failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None, perf() - t0
        return out, perf() - t0

    def _control_step(self, total: int) -> bool:
        """Run the control call due after ``total`` accesses (if any)."""
        phase = total % W2_CONTROL_PERIOD
        if phase == 0:
            model = self.models[self.swaps_done % len(self.models)]
            _, dt = self._control("swap", self.engine.swap_model, model)
            self.swaps_done += 1
            self.swap_s.append(dt)
            self.swap_drained.append(int(self.engine.last_swap_drained))
            self._buffered = [0] * W2_WORKERS
        elif phase == W2_CONTROL_PERIOD // 2:
            # Exchange the homes of two streams, one on each worker, so every
            # worker keeps two streams: an uneven split makes the response
            # times bimodal and their median unstable.
            n = len(self.handles)
            a = self.handles[self.migrations % n]
            b = next(self.handles[(self.migrations + j) % n] for j in range(1, n)
                     if self.handles[(self.migrations + j) % n].shard_id != a.shard_id)
            self.migrations += 1
            for h, target in ((a, b.shard_id), (b, a.shard_id)):
                source = h.shard_id
                rec, dt = self._control("migrate", self.engine.migrate_stream, h, target)
                self.migrate_s.append(dt)
                if rec is not None:
                    self.snapshot_bytes.append(int(rec["bytes"]))
                self._buffered[source] = 0
        else:
            return False
        return True

    def serve(self, n: int, off: float) -> int:
        sched, pcs, addrs, pos, starts = self.schedule, self.pcs, self.addrs, self.pos, self.starts
        polls, deliver = self.polls, self._deliver
        traced = self.tracer is not None
        ingests = self.ingests
        n_streams = len(ingests)
        served = 0
        total = self.accesses
        while served < n:
            if self.control_failures:
                break
            s = next(sched)
            i = pos[s]
            if i >= len(pcs[s]):
                self.exhausted = True
                break
            t0 = perf()
            if traced:
                ems = self._ingest_traced(s, pcs[s][i], addrs[s][i])
            else:
                ems = ingests[s](pcs[s][i], addrs[s][i])
            parked = [polls[j]() for j in range(n_streams)]
            t1 = perf() - off
            starts[s].append(t0 - off)
            pos[s] = i + 1
            served += 1
            total += 1
            if ems:
                deliver(s, ems, t1)
            for j, pems in enumerate(parked):
                if pems:
                    deliver(j, pems, t1)
            if self._control_step(total):
                parked = [polls[j]() for j in range(n_streams)]
                t1 = perf() - off
                for j, pems in enumerate(parked):
                    if pems:
                        deliver(j, pems, t1)
        return served

    def finish(self, off: float) -> None:
        if self.tracer is not None:
            self.tracer.call("serve.flush", self.engine.flush_all)
        else:
            self.engine.flush_all()
        parked = [poll() for poll in self.polls]
        t1 = perf() - off
        for j, pems in enumerate(parked):
            self._deliver(j, pems, t1)

    def counters(self) -> dict:
        st = self.engine.stats()
        return {"predict_calls": st["predict_calls"],
                "fast_path_flushes": st["fast_path_flushes"],
                "credit_stalls": st["pipeline"]["credit_stalls"],
                "overlap_ratio": st["pipeline"]["overlap_ratio"]}

    def worker_pids(self) -> list[int]:
        import multiprocessing as mp

        return [p.pid for p in mp.active_children()]

    def worker_p50_us(self) -> float:
        import statistics

        return statistics.median(st.p50_us for st in self.engine.stream_stats())

    def close(self) -> None:
        self.engine.close()


def swap_targets(dart) -> list:
    """w2-sharded swap targets: a deep copy of the serving tables, then the
    originals. Identical answers, and a fresh publish on every swap."""
    return [copy.deepcopy(dart.predictor), dart.predictor]


def make_driver(workload: str, dart, traces, seed: int, tracer=None,
                swap_models=None) -> Driver:
    if workload == "b1-single":
        return B1Single(dart, traces, tracer)
    if workload == "b32-multi":
        return B32Multi(dart, traces, seed, tracer)
    if workload == "w2-sharded":
        return W2Sharded(dart, traces, seed, swap_models, tracer)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def n_streams(workload: str) -> int:
    return {"b1-single": 1, "b32-multi": B32_STREAMS, "w2-sharded": W2_STREAMS}[workload]


def measure(driver: Driver, meter, seconds: float, slice_accesses: int,
            tracer=None) -> list[int]:
    """Serve warm-up slices, then timed slices with a probe slice between
    each pair, until ``seconds`` of wall time have passed; then flush.

    Returns the accesses served per timed slice (the final flush is a
    slice of 0 accesses). The meter holds the raw slice times and probes;
    the driver holds per-slice response samples.
    """
    for _ in range(WARMUP_SLICES):
        driver.serve(slice_accesses, meter.probe_total_s)
    driver.drop_samples()
    if tracer is not None:
        tracer.reset()
    counts = []
    meter.probe()
    deadline = perf() + seconds
    while True:
        off = meter.probe_total_s
        driver.begin_slice()
        t0 = perf()
        n = driver.serve(slice_accesses, off)
        meter.add_slice(perf() - t0)
        meter.probe()
        counts.append(n)
        if n < slice_accesses or perf() >= deadline:
            break
    off = meter.probe_total_s
    driver.begin_slice()
    t0 = perf()
    driver.finish(off)
    meter.add_slice(perf() - t0)
    meter.probe()
    counts.append(0)
    return counts

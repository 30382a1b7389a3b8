"""Per-component cost ledger of the table hierarchy.

For every name ``TabularAttentionPredictor.cost_components()`` lists, time
the component's public ``query`` on the activations it sees inside a real
query, at B=1 and B=32, and put the result beside the paper's analytic cost
of that component (Eq. 16-23 cycles, kernel ops). Also time the whole
``predict_proba`` (to check the components add up), the single-query fast
path, and the dense distilled student the tables came from (the paper's
Table V comparison).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

perf = time.perf_counter

#: timed calls per measurement (the median call is kept)
REPS = {1: 150, 32: 25}
#: the component sum must land within this share of the whole predict;
#: what is left over is glue the ledger does not price (head split and
#: merge, residual adds, ReLU, mean pooling, positional add)
SUM_SHARE_TOLERANCE = (0.70, 1.10)


def metric_name(component: str) -> str:
    return component.replace("/", ".")


def _median_call_s(fn, reps: int, meter) -> float:
    """Median seconds of one ``fn()`` call, host-normalized."""
    fn()  # first call may allocate
    times = []
    for _ in range(reps):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    meter.add_slice(sum(times))
    meter.probe()
    return statistics.median(times) * meter.scales()[-1]


def windows(trace, config, n: int):
    """The first ``n`` full history windows of ``trace`` as model inputs."""
    from repro.utils.bits import block_address

    t = config.history_len
    seg = config.segmenter()
    ba = block_address(trace.addrs[: n + t - 1])
    aw = np.lib.stride_tricks.sliding_window_view(ba, t)
    pw = np.lib.stride_tricks.sliding_window_view(trace.pcs[: n + t - 1], t)
    return seg.segment_block_addresses(aw), seg.segment_pcs(pw)


def _component_calls(model, x_addr, x_pc) -> dict:
    """Run one query step by step; return ``name -> zero-arg call`` bound to
    the exact input each component receives."""
    calls = {}
    a = model.addr_table.query(x_addr)
    p = model.pc_table.query(x_pc)
    calls["addr_table"] = lambda: model.addr_table.query(x_addr)
    calls["pc_table"] = lambda: model.pc_table.query(x_pc)
    h_pre = model.pos.apply_inference(a + p)
    calls["ln_in"] = lambda: model.ln_in.query(h_pre)
    h = model.ln_in.query(h_pre)
    for i, layer in enumerate(model.layers):
        msa = layer.msa
        b, t, d = h.shape
        hh, hd = msa.heads, msa.head_dim

        def split(m, b=b, t=t, hh=hh, hd=hd):
            return m.reshape(b, t, hh, hd).transpose(0, 2, 1, 3).reshape(b * hh, t, hd)

        h_in = h
        qkv = msa.qkv.query(h_in)
        q, k, v = (split(m) for m in np.split(qkv, 3, axis=-1))
        ctx = msa.attn.query(q, k, v)
        merged = ctx.reshape(b, hh, t, hd).transpose(0, 2, 1, 3).reshape(b, t, d)
        attn_out = msa.out.query(merged)
        ln1_in = h_in + attn_out
        h1 = layer.ln1.query(ln1_in)
        f1 = np.maximum(layer.ffn1.query(h1), 0.0)
        f2 = layer.ffn2.query(f1)
        ln2_in = h1 + f2
        h = layer.ln2.query(ln2_in)
        calls[f"enc{i}/qkv"] = lambda m=msa, x=h_in: m.qkv.query(x)
        calls[f"enc{i}/attn"] = lambda m=msa, q=q, k=k, v=v: m.attn.query(q, k, v)
        calls[f"enc{i}/out"] = lambda m=msa, x=merged: m.out.query(x)
        calls[f"enc{i}/ln1"] = lambda lay=layer, x=ln1_in: lay.ln1.query(x)
        calls[f"enc{i}/ffn1"] = lambda lay=layer, x=h1: lay.ffn1.query(x)
        calls[f"enc{i}/ffn2"] = lambda lay=layer, x=f1: lay.ffn2.query(x)
        calls[f"enc{i}/ln2"] = lambda lay=layer, x=ln2_in: lay.ln2.query(x)
    pooled = h.mean(axis=-2)
    logits = model.head_table.query(pooled)
    calls["head_table"] = lambda: model.head_table.query(pooled)
    calls["sigmoid"] = lambda: model.sigmoid.query(logits)
    return calls


def analytic_costs(model) -> dict:
    """Per component: the cycles ``latency_cycles()`` charges it and the
    kernel ops ``arithmetic_ops()`` counts for it."""
    from repro.tabularization.tabular_model import LATENCY_LAYERNORM, LATENCY_SIGMOID

    out = {}
    for name, comp, seq_len in model.cost_components():
        if seq_len is None:
            cycles = LATENCY_SIGMOID if comp is model.sigmoid else LATENCY_LAYERNORM
            ops = 0.0
        else:
            cycles = float(comp.latency_cycles())
            ops = float(comp.ops(seq_len))
        out[name] = {"cycles": float(cycles), "ops": ops}
    return out


def build_ledger(model, student, x_addr, x_pc, meter) -> dict:
    """Measured µs per query for each component at B=1 and B=32, beside the
    analytic costs; whole-predict, fast-path and dense-student times."""
    names = [name for name, _, _ in model.cost_components()]
    costs = analytic_costs(model)
    rows = {name: dict(costs[name]) for name in names}
    whole = {}
    dense = {}
    meter.probe()
    for b in (1, 32):
        xa, xp = x_addr[:b], x_pc[:b]
        calls = _component_calls(model, xa, xp)
        if sorted(calls) != sorted(names):
            raise RuntimeError(f"ledger components {sorted(calls)} != "
                               f"cost_components() {sorted(names)}")
        for name in names:
            rows[name][f"b{b}_us"] = _median_call_s(calls[name], REPS[b], meter) * 1e6 / b
        whole[b] = _median_call_s(lambda: model.predict_proba(xa, xp), REPS[b], meter) * 1e6 / b
        dense[b] = _median_call_s(lambda: student.predict_proba(xa, xp), REPS[b], meter) * 1e6 / b
    fast = model.fast_path()
    out1 = np.empty((1, model.model_config.bitmap_size))
    query1 = _median_call_s(lambda: fast.query_into(x_addr[0], x_pc[0], out1), REPS[1], meter) * 1e6
    sums = {b: sum(rows[name][f"b{b}_us"] for name in names) for b in (1, 32)}
    share32 = sums[32] / whole[32]
    lo, hi = SUM_SHARE_TOLERANCE
    return {
        "components": rows,
        "predict_b1_us": whole[1],
        "predict_b32_us": whole[32],
        "query1_us": query1,
        "dense_b1_us": dense[1],
        "dense_b32_us": dense[32],
        "speedup_vs_dense_b1": dense[1] / whole[1],
        "speedup_vs_dense_b32": dense[32] / whole[32],
        "component_sum_b1_us": sums[1],
        "component_sum_b32_us": sums[32],
        "component_sum_share_b32": share32,
        "component_sum_share_b1": sums[1] / whole[1],
        "sum_tolerance": [lo, hi],
        "sum_within_tolerance": lo <= share32 <= hi,
        "analytic_total_cycles": float(model.latency_cycles()),
        "analytic_total_ops": float(model.arithmetic_ops()),
    }


def format_ledger(ledger: dict) -> list[str]:
    """The ledger as a fixed-width table, one string per line."""
    lines = [f"{'component':<12} {'b1 us/q':>9} {'b32 us/q':>9} {'cycles':>8} {'ops':>12}"]
    for name, r in ledger["components"].items():
        lines.append(f"{name:<12} {r['b1_us']:>9.2f} {r['b32_us']:>9.2f} "
                     f"{r['cycles']:>8.1f} {r['ops']:>12.0f}")
    lines.append(f"{'sum':<12} {ledger['component_sum_b1_us']:>9.2f} "
                 f"{ledger['component_sum_b32_us']:>9.2f} "
                 f"{ledger['analytic_total_cycles']:>8.1f} {ledger['analytic_total_ops']:>12.0f}")
    lines.append(f"{'predict':<12} {ledger['predict_b1_us']:>9.2f} {ledger['predict_b32_us']:>9.2f}"
                 f"   (components / predict at B=32: {ledger['component_sum_share_b32']:.3f},"
                 f" tolerance {ledger['sum_tolerance']})")
    lines.append(f"{'query1':<12} {ledger['query1_us']:>9.2f}")
    lines.append(f"{'dense NN':<12} {ledger['dense_b1_us']:>9.2f} {ledger['dense_b32_us']:>9.2f}"
                 f"   (dense / tables: {ledger['speedup_vs_dense_b1']:.2f}x at B=1,"
                 f" {ledger['speedup_vs_dense_b32']:.2f}x at B=32)")
    return lines

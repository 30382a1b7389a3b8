"""Query plans: bit-identity, scratch reuse, refresh guards.

:class:`~repro.tabularization.fastpath.SingleQueryFastPath` replays the
generic batched query as fused fixed-shape plans over preallocated scratch —
worth nothing unless the answer is *bitwise* the generic one, because the
serving conformance story (stream == batch oracle) rides on it. Every test
here pins equality with ``np.array_equal``, not allclose. The ``n``-window
tests run every window count up to ``2·CAP + 1``: each chunk boundary and
each power-of-two decomposition of a remainder.
"""

from __future__ import annotations

import copy
import gc
import sys
import weakref

import numpy as np
import pytest

from repro.tabularization import SingleQueryFastPath
from repro.tabularization.fastpath import CAP

#: every window count through two full chunks plus a one-window remainder
WINDOW_COUNTS = list(range(1, 2 * CAP + 2))


@pytest.fixture(scope="module")
def tab(tabular_student):
    model, _ = tabular_student
    return model


@pytest.fixture(scope="module")
def queries(small_dataset):
    return small_dataset.x_addr[:200], small_dataset.x_pc[:200]


def test_query1_bitwise_identical_to_generic(tab, queries):
    xa, xp = queries
    ref = tab.query(xa, xp)
    for i in range(len(xa)):
        got = tab.query1(xa[i], xp[i])
        assert got.shape == ref[i].shape
        assert np.array_equal(got, ref[i]), f"row {i} diverged"


def test_query1_accepts_leading_batch_axis(tab, queries):
    xa, xp = queries
    a = tab.query1(xa[0], xp[0])
    b = tab.query1(xa[:1], xp[:1])
    assert np.array_equal(a, b)


def test_query1_rejects_wrong_history(tab, queries):
    xa, xp = queries
    with pytest.raises(ValueError):
        tab.query1(xa[0, :-1], xp[0])


def test_fast_path_is_cached(tab):
    fp = tab.fast_path()
    assert isinstance(fp, SingleQueryFastPath)
    assert tab.fast_path() is fp


def _windows(xa, xp, n, start=0):
    """``n`` windows as ``query_into`` takes them: ``(T, S)`` for one."""
    if n == 1:
        return xa[start], xp[start]
    return xa[start : start + n], xp[start : start + n]


@pytest.mark.parametrize("n", [1, CAP, 13])
def test_query_into_steady_state_allocates_nothing(tab, queries, n):
    """After warmup, repeated queries run entirely in preallocated scratch."""
    xa, xp = queries
    fp = tab.fast_path()
    out = np.empty((n, tab.model_config.bitmap_size), dtype=np.float64)
    for i in range(20):  # warm every lazily-built plan, view and cache
        fp.query_into(*_windows(xa, xp, n, i), out)
    before = sys.getallocatedblocks()
    for i in range(50):
        fp.query_into(*_windows(xa, xp, n, i % 20), out)
    after = sys.getallocatedblocks()
    # Python-frame churn allows a tiny wobble; 50 queries through the generic
    # path would allocate thousands of blocks.
    assert abs(after - before) < 50


@pytest.mark.parametrize("n", WINDOW_COUNTS)
def test_query_into_repeated_calls_stay_bitwise(tab, queries, n):
    xa, xp = queries
    fp = tab.fast_path()
    out = np.empty((n, tab.model_config.bitmap_size), dtype=np.float64)
    ref = tab.query(xa, xp)
    for _ in range(3):  # scratch reuse must not leak state across calls
        for start in range(0, len(xa) - n + 1, 4 * n + 1):
            fp.query_into(*_windows(xa, xp, n, start), out)
            assert np.array_equal(out, ref[start : start + n]), f"windows at {start} diverged"


@pytest.mark.parametrize("n", WINDOW_COUNTS)
def test_fast_path_tracks_inplace_table_rebuild(tab, queries, n):
    """An in-place kernel ``rebuild()`` must invalidate the gathered plans."""
    xa, xp = queries
    fp = tab.fast_path()
    out = np.empty((n, tab.model_config.bitmap_size))
    fp.query_into(*_windows(xa, xp, n), out)  # build caches
    head = tab.head_table
    old_table = head.table.copy()
    try:
        # Swap the head's table array (what a drift-refresh rebuild() does);
        # every plan must notice the new array and re-gather from it.
        head.table = old_table * 2.0
        fp.query_into(*_windows(xa, xp, n), out)
        assert np.array_equal(out, tab.query(xa[:n], xp[:n]))
    finally:
        head.table = old_table


def test_plans_are_powers_of_two_up_to_cap(tab, queries):
    xa, xp = queries
    fp = tab.fast_path()
    n = 2 * CAP + 7  # 8 + 8 + 4 + 2 + 1
    fp.query_into(xa[:n], xp[:n], np.empty((n, tab.model_config.bitmap_size)))
    assert fp.n == 1 and set(fp.plans) == {2, 4, CAP}


def test_dropped_model_frees_its_plans_without_the_cycle_collector(tab, queries):
    """A hot swap drops the old model: it and its plans' scratch must go at
    once, not wait for the cyclic GC. Copies never share or copy plans."""
    xa, xp = queries
    n = 2 * CAP - 1
    tab.fast_path().query_into(xa[:n], xp[:n], np.empty((n, tab.model_config.bitmap_size)))
    model = copy.deepcopy(tab)
    assert getattr(model, "_fast_path", None) is None
    out = np.empty((n, tab.model_config.bitmap_size))
    model.fast_path().query_into(xa[:n], xp[:n], out)
    assert np.array_equal(out, tab.query(xa[:n], xp[:n]))
    alive = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert alive() is None
    finally:
        gc.enable()


def test_predict_proba_batch_one_matches_query1(tab, queries):
    xa, xp = queries
    probs = tab.predict_proba(xa[:8], xp[:8], batch_size=1)
    for i in range(8):
        assert np.array_equal(probs[i], tab.query1(xa[i], xp[i]))


def test_mismatched_pc_windows_are_refused(tab, queries):
    """A one-row ``x_pc`` used to broadcast silently over all T positions."""
    xa, xp = queries
    bitmap = tab.model_config.bitmap_size
    with pytest.raises(ValueError, match="x_pc"):
        tab.query1(xa[0], xp[0, :1])
    with pytest.raises(ValueError, match="x_pc"):
        tab.query(xa[:1], xp[:1, :1])
    with pytest.raises(ValueError, match="x_pc"):
        tab.predict_proba(xa[:3], xp[:3, :1])
    with pytest.raises(ValueError, match="x_pc"):  # n differs past one chunk
        tab.predict_proba(xa[:4], xp[:6], batch_size=4)
    with pytest.raises(ValueError, match="x_pc"):
        tab.fast_path().query_into(xa[:5], xp[:5, :1], np.empty((5, bitmap)))
    with pytest.raises(ValueError, match="x_pc"):
        tab.fast_path().query_into(xa[:5], xp[:4], np.empty((5, bitmap)))

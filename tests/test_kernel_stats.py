"""Tests of the kernel work telemetry (``BatchKernelStats``).

``perfbench/workloads.py`` and the engine's kernel metrics read a batch's
``rows``, ``cells``, ``steps``, ``row_steps`` and ``live_fraction``, and the
worker pools fold per-shard stats with :meth:`BatchKernelStats.merge`.
These tests pin the merge fold and check that the counters of both pair
kernels (the C kernel and the numpy fallback) add up over split batches.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core import ScoringScheme, xdrop_native
from repro.core.xdrop_batch import BatchKernelStats, xdrop_extend_batch
from repro.core.xdrop_native import native_kernel
from repro.data import PairSetSpec, generate_pair_set
from repro.logan.kernel import extend_pairs_batched

requires_cc = pytest.mark.skipif(
    shutil.which(xdrop_native.COMPILE[0]) is None, reason="no C compiler on PATH"
)

ADDITIVE = (
    "rows", "steps", "row_steps", "active_row_steps", "compactions", "tiles", "cells"
)


def kstats(dtype="int16", **counts) -> BatchKernelStats:
    return BatchKernelStats(dtype=dtype, **counts)


@pytest.fixture
def pairs():
    jobs = generate_pair_set(
        PairSetSpec(
            num_pairs=8,
            min_length=80,
            max_length=200,
            pairwise_error_rate=0.12,
            seed_placement="start",
            rng_seed=17,
        )
    )
    return [(job.query, job.target) for job in jobs]


@pytest.mark.parametrize(
    "first, second, merged",
    [
        ("", "", ""),  # nothing swept yet on either side
        ("", "int32", "int32"),  # an empty accumulator adopts the tier
        ("int16", "", "int16"),  # an empty batch leaves the tier alone
        ("int16", "int16", "int16"),
        ("int16", "int32", "mixed"),
        ("int64", "int16", "mixed"),
        ("mixed", "int16", "mixed"),
    ],
)
def test_merge_folds_the_dtype_tier(first, second, merged):
    assert kstats(first).merge(kstats(second)).dtype == merged


def test_merge_adds_counters_and_keeps_the_widest_window():
    a = kstats(rows=4, steps=10, row_steps=40, active_row_steps=10,
               compactions=1, tiles=12, peak_window=8, cells=100)
    b = kstats(rows=2, steps=5, row_steps=10, active_row_steps=10,
               compactions=2, tiles=5, peak_window=3, cells=50)
    merged = BatchKernelStats().merge(a).merge(b)
    for field in ADDITIVE:
        assert getattr(merged, field) == getattr(a, field) + getattr(b, field)
    assert merged.peak_window == 8
    # The pooled ratio, not the mean of the two batches' fractions.
    assert merged.live_fraction == pytest.approx(20 / 50)


def test_merge_into_an_empty_accumulator_is_the_identity():
    one = kstats(rows=3, steps=7, row_steps=15, active_row_steps=12,
                 compactions=1, tiles=9, peak_window=6, cells=80, dtype="int32")
    assert BatchKernelStats().merge(one).to_dict() == one.to_dict()
    assert BatchKernelStats().live_fraction == 1.0


@requires_cc
def test_native_stats_of_split_calls_merge_to_one_call(pairs):
    """The C kernel pads nothing: every counter is additive over a split."""
    assert native_kernel().available
    scoring = ScoringScheme()
    whole = BatchKernelStats()
    extend_pairs_batched(pairs, scoring, 20, stats=whole)
    halves = [BatchKernelStats(), BatchKernelStats()]
    extend_pairs_batched(pairs[:3], scoring, 20, stats=halves[0])
    extend_pairs_batched(pairs[3:], scoring, 20, stats=halves[1])
    merged = BatchKernelStats().merge(halves[0]).merge(halves[1])
    assert merged.to_dict() == whole.to_dict()
    assert whole.live_fraction == 1.0


def test_numpy_stats_of_split_calls_keep_rows_and_cells(pairs):
    """Padded steps depend on the batch shape; rows and cells do not."""
    whole = BatchKernelStats()
    results = xdrop_extend_batch(pairs, xdrop=20, stats=whole)
    halves = [BatchKernelStats(), BatchKernelStats()]
    xdrop_extend_batch(pairs[:3], xdrop=20, stats=halves[0])
    xdrop_extend_batch(pairs[3:], xdrop=20, stats=halves[1])
    merged = BatchKernelStats().merge(halves[0]).merge(halves[1])
    assert (merged.rows, merged.cells) == (whole.rows, whole.cells)
    assert whole.cells == sum(ext.cells_computed for ext in results)
    # Every row is live on each anti-diagonal after its first, in any split.
    anti_diagonals = sum(ext.anti_diagonals for ext in results)
    assert whole.active_row_steps == anti_diagonals - len(pairs)
    assert merged.active_row_steps == whole.active_row_steps
    assert 0.0 < whole.live_fraction <= 1.0

"""Tests of the kernel's batch-sizing hint (``suggested_batch_size``).

The hint is the one piece of kernel telemetry the service reports about
batch sizing (``ServiceStats.suggested_batch_size`` and the
``repro_kernel_suggested_batch_size`` gauge).  It must stay bounded: at
most double the current size, never above the explicit or default ceiling
nor :data:`MAX_SUGGESTED_BATCH_SIZE`, and never below one.
"""

from __future__ import annotations

import pytest

from repro.core.xdrop_batch import (
    MAX_SUGGESTED_BATCH_SIZE,
    BatchKernelStats,
    WindowedKernelStats,
)


def kstats(rows=32, fraction=0.9, peak=512, depth=50):
    """Synthetic one-batch telemetry with a chosen live fraction."""
    row_steps = rows * depth
    return BatchKernelStats(
        rows=rows,
        steps=depth,
        row_steps=row_steps,
        active_row_steps=int(row_steps * fraction),
        compactions=1,
        tiles=depth,
        peak_window=peak,
        cells=row_steps * 16,
        dtype="int16",
        weighted_rows=rows,
        weighted_live=fraction * rows,
    )


class TestSuggestedBatchSizeClamp:
    def test_growth_capped_at_four_times_current_by_default(self):
        grown = kstats(fraction=0.95).suggested_batch_size(512)
        assert grown == 1024  # doubling stays under the 4x default ceiling

    def test_absolute_ceiling_is_never_exceeded(self):
        assert (
            kstats(fraction=0.95).suggested_batch_size(MAX_SUGGESTED_BATCH_SIZE)
            == MAX_SUGGESTED_BATCH_SIZE
        )
        assert (
            kstats(fraction=0.95).suggested_batch_size(
                900, max_batch_size=10**9
            )
            == MAX_SUGGESTED_BATCH_SIZE
        )

    def test_explicit_ceiling_clamps_every_branch(self):
        # Growth, hold and shrink all respect an explicit ceiling.
        assert kstats(fraction=0.95).suggested_batch_size(64, max_batch_size=100) == 100
        assert kstats(fraction=0.7).suggested_batch_size(64, max_batch_size=32) == 32
        assert kstats(fraction=0.2).suggested_batch_size(64, max_batch_size=16) == 16

    def test_ceiling_is_at_least_one(self):
        assert kstats(fraction=0.95).suggested_batch_size(1, max_batch_size=0) == 1


class TestSuggestedBatchSizeBranches:
    @pytest.mark.parametrize(
        "fraction, current, expected",
        [
            (0.10, 64, 32),  # ragged retirement: halve
            (0.49, 64, 32),  # just under the shrink edge
            (0.20, 10, 8),  # halving never goes below the floor of 8
            (0.20, 4, 8),  # ... even when current is already smaller
            (0.50, 64, 64),  # the shrink edge itself holds
            (0.85, 64, 64),  # the grow edge itself holds
            (0.86, 64, 128),  # just over the grow edge: double
            (1.00, 3, 6),
        ],
    )
    def test_hint_table(self, fraction, current, expected):
        assert kstats(fraction=fraction).suggested_batch_size(current) == expected

    @pytest.mark.parametrize("current, expected", [(0, 1), (-3, 1), (5, 5)])
    def test_no_signal_holds_current(self, current, expected):
        # No row-steps (or a non-positive size) gives no reason to move.
        assert BatchKernelStats().suggested_batch_size(current) == expected

    def test_rows_weighted_signal_resists_one_tiny_straggler(self):
        # One 2-row batch that retired raggedly must not outvote a
        # 64-row batch that retired uniformly.
        big = kstats(rows=64, fraction=0.95)
        tiny = kstats(rows=2, fraction=0.05, depth=5000)
        merged = BatchKernelStats().merge(big).merge(tiny)
        assert merged.live_fraction < 0.5  # the raw ratio follows the straggler
        assert merged.suggested_batch_size(64) == 128

    def test_windowed_hint_follows_a_traffic_shift(self):
        window = WindowedKernelStats(window=4)
        for _ in range(10):
            window.observe(kstats(fraction=0.1))
        assert window.suggested_batch_size(64) == 32
        for _ in range(4):
            window.observe(kstats(fraction=0.95))
        # The ragged history has left the window entirely.
        assert window.suggested_batch_size(64) == 128
        assert window.total_batches == 14

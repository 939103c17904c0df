"""Differential tests of the compacting/tiled numpy batched X-drop kernel.

The numpy kernel (:func:`repro.core.xdrop_batch.xdrop_extend_batch`) is the
pair kernel only on hosts without a C compiler, so these tests call it
directly rather than through the ``batched`` engine, which would run the C
kernel wherever ``cc`` exists.  Active-row compaction, int16/int32
downsizing and column tiling must be invisible in every output bit: each
workload-bank profile's seed-extension sides are swept with the default
knobs (tier-1, all profiles) and with forced knobs (the full matrix under
the ``tier2`` marker) and compared against the scalar reference, band
traces included.  A Hypothesis sweep asserts invariance to random
thresholds/tile widths, narrow tiles are forced on each dtype tier, and
the short-circuit of fully-retired rows is pinned on the ``degenerate``
profile for each compaction threshold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ScoringScheme
from repro.core.xdrop import xdrop_extend_reference
from repro.core.xdrop_batch import (
    DEFAULT_COMPACT_THRESHOLD,
    DEFAULT_TILE_WIDTH,
    BatchKernelStats,
    xdrop_extend_batch,
)
from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.logan.host import prepare_batch
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

XDROP = 15
SPEC = WorkloadSpec(count=6, seed=23, min_length=50, max_length=140, xdrop=XDROP)

#: Knob settings that force every mechanism on hard: compaction at every
#: retirement, single-column tiles, and a mid-range tile.
FORCED_TUNINGS = [
    {"compact_threshold": 1.0, "tile_width": 1},
    {"compact_threshold": 1.0, "tile_width": 7},
    {"compact_threshold": 0.0, "tile_width": 3},
    {"compact_threshold": 0.25, "tile_width": 64},
]


def _pairs_from_workload(profile: str, spec: WorkloadSpec = SPEC):
    """Raw (query, target) extension inputs from a workload's jobs."""
    workload = generate_workload(profile, spec)
    return [(job.query, job.target) for job in workload.jobs]


def _extension_sides(profile: str, spec: WorkloadSpec = SPEC):
    """The non-empty seed-extension sides the engines hand to the kernel."""
    prepared = prepare_batch(generate_workload(profile, spec).jobs, ScoringScheme())
    return [
        (task.query, task.target)
        for task in prepared.left_tasks + prepared.right_tasks
        if not task.is_empty
    ]


def _result_tuple(res):
    return (
        res.best_score,
        res.query_end,
        res.target_end,
        res.anti_diagonals,
        res.cells_computed,
        res.terminated_early,
    )


def assert_identical(batch_results, reference_results):
    assert len(batch_results) == len(reference_results)
    for k, (got, ref) in enumerate(zip(batch_results, reference_results)):
        assert _result_tuple(got) == _result_tuple(ref), k
        same_trace = (got.band_widths is None) == (ref.band_widths is None) and (
            got.band_widths is None
            or np.array_equal(got.band_widths, ref.band_widths)
        )
        assert same_trace, k


def assert_sides_match_reference(profile: str, **tuning) -> None:
    """Sweep *profile*'s extension sides in one call, compare per side."""
    pairs = _extension_sides(profile)
    assert pairs
    swept = xdrop_extend_batch(pairs, xdrop=XDROP, trace=True, **tuning)
    reference = [
        xdrop_extend_reference(q, t, xdrop=XDROP, trace=True) for q, t in pairs
    ]
    assert_identical(swept, reference)


# --------------------------------------------------------------------------- #
# Tier-1 differential subset: every profile's extension sides, default knobs
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("profile", list_profiles())
def test_tier1_profile_conformance_default_knobs(profile):
    """Workload profiles through the numpy kernel vs the scalar oracle.

    Scores, extents, work accounting *and band traces* must be
    bit-identical, with the kernel's default compaction and tiling.
    """
    assert_sides_match_reference(profile)


@pytest.mark.parametrize("tuning", FORCED_TUNINGS, ids=lambda t: str(t))
def test_tier1_forced_knobs_bit_identical(tuning):
    """Forced compaction/tiling settings on a mixed workload, per-pair."""
    pairs = _pairs_from_workload("pacbio") + _pairs_from_workload("length_skew")
    tuned = xdrop_extend_batch(pairs, xdrop=XDROP, trace=True, **tuning)
    reference = [
        xdrop_extend_reference(q, t, xdrop=XDROP, trace=True) for q, t in pairs
    ]
    assert_identical(tuned, reference)


# --------------------------------------------------------------------------- #
# Tier-2 full matrix: every profile x forced knobs
# --------------------------------------------------------------------------- #
@pytest.mark.tier2
@pytest.mark.parametrize("tuning", FORCED_TUNINGS, ids=lambda t: str(t))
@pytest.mark.parametrize("profile", list_profiles())
class TestCompactionConformanceMatrix:
    def test_profile_conformance_with_forced_knobs(self, profile, tuning):
        assert_sides_match_reference(profile, **tuning)


# --------------------------------------------------------------------------- #
# Hypothesis: results are invariant to any legal knob combination
# --------------------------------------------------------------------------- #
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    threshold=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    tile=st.integers(min_value=1, max_value=256),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_kernel_invariant_to_tuning_knobs(threshold, tile, seed):
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(1, 10))
    pairs = []
    for _ in range(batch):
        m = int(rng.integers(1, 70))
        n = int(rng.integers(1, 70))
        pairs.append(
            (
                rng.integers(0, 4, size=m).astype(np.uint8),
                rng.integers(0, 4, size=n).astype(np.uint8),
            )
        )
    xdrop = int(rng.integers(0, 30))
    baseline = xdrop_extend_batch(pairs, xdrop=xdrop, trace=True)
    tuned = xdrop_extend_batch(
        pairs,
        xdrop=xdrop,
        trace=True,
        compact_threshold=threshold,
        tile_width=tile,
    )
    assert_identical(tuned, baseline)


# --------------------------------------------------------------------------- #
# Regression: fully-retired rows are short-circuited (degenerate profile)
# --------------------------------------------------------------------------- #
def test_degenerate_retired_rows_short_circuited():
    """A long straggler plus a degenerate batch: dead rows must stop costing.

    Before the rework, every anti-diagonal step re-derived band bounds for
    every retired row, so ``row_steps`` would equal ``rows * steps``.  With
    compaction, the instantly-retiring degenerate extensions must be
    dropped after a handful of steps while the straggler runs on alone.
    """
    rng = np.random.default_rng(7)
    straggler = rng.integers(0, 4, size=400).astype(np.uint8)
    pairs = [(straggler, straggler.copy())]
    pairs += _pairs_from_workload("degenerate", WorkloadSpec(count=24, seed=5))

    stats = BatchKernelStats()
    results = xdrop_extend_batch(pairs, xdrop=15, stats=stats)
    reference = [xdrop_extend_reference(q, t, xdrop=15) for q, t in pairs]
    assert_identical(results, reference)

    assert stats.compactions >= 1
    # The straggler alone accounts for ~steps row-steps; the 24 degenerate
    # rows retire almost immediately, so without compaction row_steps would
    # be ~25x steps.  Allow generous slack while still proving the
    # short-circuit.
    assert stats.row_steps < stats.steps * 4, stats.to_dict()
    assert stats.live_fraction > 0.5


def test_degenerate_profile_conformance_with_stats():
    """Degenerate workload through the batched engine, stats attached."""
    engine = get_engine("batched", xdrop=15)
    workload = generate_workload("degenerate", SPEC)
    batch = engine.align_batch(workload.jobs)
    stats = batch.extras["kernel_stats"]
    assert stats.rows > 0
    # Seed-flush (empty) extensions never reach the kernel; they add one
    # accounting cell each outside the sweep, so the kernel's cell count is
    # bounded by — and close to — the per-result accounting.
    total = sum(r.cells_computed for r in batch.results)
    assert 0 < stats.cells <= total
    assert total - stats.cells == 2 * len(batch.results) - stats.rows


# --------------------------------------------------------------------------- #
# Forced knobs: the tile fold on every dtype tier, the compaction threshold
# --------------------------------------------------------------------------- #
#: ``(scoring, xdrop)`` settings that make the overflow guard pick each tier.
DTYPE_TIERS = {
    "int16": (ScoringScheme(), 10),
    "int32": (ScoringScheme(), 10**6),
    "int64": (ScoringScheme(), 2**31),
}


@pytest.mark.parametrize("tile_width", [1, 2, 5, DEFAULT_TILE_WIDTH])
@pytest.mark.parametrize("tier", sorted(DTYPE_TIERS))
def test_tile_fold_on_every_dtype_tier(tier, tile_width):
    """Narrow tiles split every step; the default width never does here.

    Tier-1 inputs never reach a window as wide as the default tile, so the
    fold across tiles is exercised only through a forced ``tile_width``.
    """
    scoring, xdrop = DTYPE_TIERS[tier]
    rng = np.random.default_rng(11)
    q = rng.integers(0, 4, size=40).astype(np.uint8)
    other = rng.integers(0, 4, size=30).astype(np.uint8)
    pairs = [(q, q.copy()), (q[:25], q[3:]), (q[5:], other)]
    stats = BatchKernelStats()
    got = xdrop_extend_batch(
        pairs, scoring=scoring, xdrop=xdrop, trace=True, stats=stats,
        tile_width=tile_width,
    )
    ref = [
        xdrop_extend_reference(a, b, scoring=scoring, xdrop=xdrop, trace=True)
        for a, b in pairs
    ]
    assert_identical(got, ref)
    assert stats.dtype == tier
    if tile_width < stats.peak_window:
        assert stats.tiles > stats.steps
    else:
        assert stats.tiles == stats.steps


@pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 1.0])
def test_compaction_threshold_sets_the_carried_rows(threshold):
    """Threshold 0 carries every row to the end; 1 carries only live rows."""
    rng = np.random.default_rng(7)
    straggler = rng.integers(0, 4, size=400).astype(np.uint8)
    pairs = [(straggler, straggler.copy())]
    pairs += _pairs_from_workload("degenerate", WorkloadSpec(count=24, seed=5))

    stats = BatchKernelStats()
    results = xdrop_extend_batch(
        pairs, xdrop=15, trace=True, stats=stats, compact_threshold=threshold
    )
    reference = [xdrop_extend_reference(q, t, xdrop=15, trace=True) for q, t in pairs]
    assert_identical(results, reference)

    if threshold == 0.0:
        assert stats.compactions == 0
        assert stats.row_steps == stats.rows * stats.steps
    else:
        assert stats.compactions >= 1
        assert stats.active_row_steps <= stats.row_steps < stats.rows * stats.steps
    if threshold == 1.0:
        assert stats.row_steps == stats.active_row_steps


# --------------------------------------------------------------------------- #
# Overflow guard and knob validation
# --------------------------------------------------------------------------- #
def test_dtype_guard_tiers():
    rng = np.random.default_rng(3)
    q = rng.integers(0, 4, size=40).astype(np.uint8)
    pairs = [(q, q.copy())]
    small = BatchKernelStats()
    xdrop_extend_batch(pairs, xdrop=10, stats=small)
    assert small.dtype == "int16"

    mid = BatchKernelStats()
    xdrop_extend_batch(pairs, xdrop=10**6, stats=mid)
    assert mid.dtype == "int32"

    wide = BatchKernelStats()
    huge = ScoringScheme(match=2**32, mismatch=-(2**32), gap=-(2**32))
    xdrop_extend_batch(pairs, scoring=huge, xdrop=10, stats=wide)
    assert wide.dtype == "int64"


def test_dtype_tiers_agree_with_reference():
    """The int64 fallback and downsized tiers produce identical answers."""
    rng = np.random.default_rng(9)
    pairs = [
        (
            rng.integers(0, 4, size=int(rng.integers(1, 60))).astype(np.uint8),
            rng.integers(0, 4, size=int(rng.integers(1, 60))).astype(np.uint8),
        )
        for _ in range(6)
    ]
    for xdrop in (0, 12, 10**6, 2**40):
        got = xdrop_extend_batch(pairs, xdrop=xdrop, trace=True)
        ref = [xdrop_extend_reference(q, t, xdrop=xdrop, trace=True) for q, t in pairs]
        assert_identical(got, ref)


@pytest.mark.parametrize(
    "length, scoring, xdrop, expected_dtype",
    [
        # Long near-identical pair: the running best climbs past the int16
        # sentinel magnitude (2**14), so int16 buffers would corrupt the
        # pruning comparisons — the guard must take the int32 tier.
        (2100, ScoringScheme(match=8, mismatch=-8, gap=-8), 40, "int32"),
        # X threshold alone floods the int32 bound: int64 fallback.
        (300, ScoringScheme(), 2**31, "int64"),
    ],
    ids=["score-exceeds-int16", "xdrop-exceeds-int32"],
)
def test_overflow_guard_on_near_identical_pairs(
    length, scoring, xdrop, expected_dtype
):
    """Wavefront-shaped adversarial input: long, almost-identical pairs.

    The numpy batched kernel must pick the widened tier and stay
    bit-identical to the scalar reference (which always computes in Python
    ints).
    """
    from repro.core.xdrop_batch import _select_dtype

    rng = np.random.default_rng(41)
    q = rng.integers(0, 4, size=length).astype(np.uint8)
    t = q.copy()
    for pos in rng.choice(length, size=8, replace=False):
        t[pos] = (int(t[pos]) + 1 + int(rng.integers(0, 3))) % 4
    pairs = [(q, t), (q.copy(), q.copy())]

    dtype, _ = _select_dtype(length, length, scoring, xdrop)
    assert np.dtype(dtype).name == expected_dtype

    got = xdrop_extend_batch(pairs, scoring=scoring, xdrop=xdrop, trace=True)
    ref = [
        xdrop_extend_reference(a, b, scoring=scoring, xdrop=xdrop, trace=True)
        for a, b in pairs
    ]
    assert_identical(got, ref)
    # the identical pair really does exceed the int16 sentinel in tier one
    if expected_dtype == "int32":
        assert got[1].best_score == length * scoring.match > 2**14


def test_overflow_guard_batched_stats_report_widened_tier():
    rng = np.random.default_rng(42)
    q = rng.integers(0, 4, size=2100).astype(np.uint8)
    scoring = ScoringScheme(match=8, mismatch=-8, gap=-8)
    stats = BatchKernelStats()
    xdrop_extend_batch([(q, q.copy())], scoring=scoring, xdrop=40, stats=stats)
    assert stats.dtype == "int32"


def test_invalid_knobs_rejected():
    pairs = [("ACGT", "ACGT")]
    with pytest.raises(ConfigurationError):
        xdrop_extend_batch(pairs, compact_threshold=1.5)
    with pytest.raises(ConfigurationError):
        xdrop_extend_batch(pairs, compact_threshold=-0.1)
    with pytest.raises(ConfigurationError):
        xdrop_extend_batch(pairs, tile_width=0)


# --------------------------------------------------------------------------- #
# Stats plumbing
# --------------------------------------------------------------------------- #
def test_stats_merge():
    a = BatchKernelStats(rows=4, steps=10, row_steps=40, active_row_steps=10,
                         compactions=1, tiles=10, peak_window=8, cells=100,
                         dtype="int16")
    b = BatchKernelStats(rows=2, steps=5, row_steps=10, active_row_steps=10,
                         compactions=0, tiles=5, peak_window=16, cells=50,
                         dtype="int32")
    merged = BatchKernelStats().merge(a).merge(b)
    assert merged.rows == 6 and merged.steps == 15
    assert merged.row_steps == 50 and merged.active_row_steps == 20
    assert merged.compactions == 1 and merged.tiles == 15
    assert merged.peak_window == 16
    assert merged.cells == 150
    assert merged.dtype == "mixed"
    assert merged.live_fraction == pytest.approx(20 / 50)
    assert BatchKernelStats().live_fraction == 1.0
    assert merged.to_dict()["live_fraction"] == merged.live_fraction


def test_default_knob_constants_are_sane():
    assert 0.0 < DEFAULT_COMPACT_THRESHOLD <= 1.0
    assert DEFAULT_TILE_WIDTH >= 64

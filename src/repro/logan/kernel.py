"""Functional LOGAN kernel: one batched sweep over every extension of a batch.

The CUDA kernel of the paper assigns each extension to a GPU block and
computes its anti-diagonals with Algorithm 2.  In this reproduction every
extension is one row of the inter-sequence batched X-drop kernel
(:func:`repro.core.xdrop_batch.xdrop_extend_batch`), mirroring LOGAN's
one-block-per-extension layout; with tracing on, each row records the
anti-diagonal width trace the GPU execution model replays to estimate V100
time.

:func:`extend_seed_batch` is the library's single batch seed-extension
path: host preprocessing, one pair-kernel call over the non-empty sides,
zero-score placeholders for seed-flush sides, and the left + seed + right
join.  The ``batched``, ``compiled``, ``wavefront`` and ``logan`` engines
all run through it, each with its own pair kernel.

The kernel is *functionally exact*: the scores and end positions it returns
are the library's single source of truth and are identical to the scalar
SeqAn-style reference (tests enforce this), which reproduces the paper's
"equivalent accuracy" statement.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.job import AlignmentJob
from ..core.result import ExtensionResult, SeedAlignmentResult
from ..core.scoring import ScoringScheme
from ..core.xdrop_batch import BatchKernelStats, xdrop_extend_batch
from ..perf.parallel import chunk_evenly, parallel_map
from .host import prepare_batch

__all__ = [
    "empty_extension",
    "extend_pairs_batched",
    "extend_seed_batch",
]

#: ``(pairs, scoring, xdrop) -> one ExtensionResult per pair, in order``.
PairKernel = Callable[
    [list[tuple[np.ndarray, np.ndarray]], ScoringScheme, int], list[ExtensionResult]
]


def empty_extension(trace: bool = True) -> ExtensionResult:
    """Result used for tasks with nothing to extend (zero-length side)."""
    return ExtensionResult(
        best_score=0,
        query_end=0,
        target_end=0,
        anti_diagonals=1,
        cells_computed=1,
        terminated_early=False,
        band_widths=np.asarray([1], dtype=np.int64) if trace else None,
    )


def _run_pair_chunk(
    pairs: list,
    scoring: ScoringScheme,
    xdrop: int,
    trace: bool,
    compact_threshold: float | None,
    tile_width: int | None,
) -> list[ExtensionResult]:
    """Worker: one batched sweep over a chunk of pairs (picklable)."""
    return xdrop_extend_batch(
        pairs,
        scoring=scoring,
        xdrop=xdrop,
        trace=trace,
        compact_threshold=compact_threshold,
        tile_width=tile_width,
    )


def extend_pairs_batched(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    scoring: ScoringScheme,
    xdrop: int,
    *,
    workers: int = 1,
    trace: bool = True,
    compact_threshold: float | None = None,
    tile_width: int | None = None,
    stats: BatchKernelStats | None = None,
) -> list[ExtensionResult]:
    """The batched pair kernel: every pair is one row of one sweep.

    With ``workers > 1`` the pairs are split into contiguous chunks and
    each chunk is swept by one worker process — chunking never changes
    scores or traces, only the measured wall-clock.

    ``compact_threshold`` / ``tile_width`` tune the kernel's active-row
    compaction and column tiling (results are invariant to them), and
    ``stats`` — when given — collects the sweep's
    :class:`~repro.core.xdrop_batch.BatchKernelStats` telemetry.  Stats are
    only gathered on the in-process path; chunked multi-worker sweeps run in
    subprocesses, which cannot update the caller's accumulator.
    """
    if workers > 1 and len(pairs) > 1:
        chunks = chunk_evenly(pairs, min(workers, len(pairs)))
        chunk_results = parallel_map(
            _run_pair_chunk,
            chunks,
            args=(scoring, xdrop, trace, compact_threshold, tile_width),
            workers=workers,
            min_items_per_worker=1,
        )
        return [ext for chunk in chunk_results for ext in chunk]
    return xdrop_extend_batch(
        pairs,
        scoring=scoring,
        xdrop=xdrop,
        trace=trace,
        compact_threshold=compact_threshold,
        tile_width=tile_width,
        stats=stats,
    )


def extend_seed_batch(
    jobs: Sequence[AlignmentJob],
    scoring: ScoringScheme,
    xdrop: int,
    pair_kernel: PairKernel,
    *,
    trace: bool,
) -> list[SeedAlignmentResult]:
    """Seed-and-extend every job of a batch with one pair-kernel call.

    Jobs are split at their seeds by :func:`repro.logan.host.prepare_batch`
    (left sides reversed).  Every non-empty side — left and right alike —
    goes to a single ``pair_kernel(pairs, scoring, xdrop)`` call; seed-flush
    sides (an empty sequence) never reach the kernel and get
    :func:`empty_extension` instead, the shared contract of every batch
    runner.  ``trace`` only shapes those placeholders; the pair kernel
    decides its own tracing.

    Raises
    ------
    ValueError
        When the kernel returns a different number of results than it was
        given pairs.
    """
    prepared = prepare_batch(jobs, scoring)
    tasks = prepared.left_tasks + prepared.right_tasks
    sides: list[ExtensionResult | None] = [
        empty_extension(trace) if task.is_empty else None for task in tasks
    ]
    live = [index for index, side in enumerate(sides) if side is None]
    if live:
        pairs = [(tasks[i].query, tasks[i].target) for i in live]
        extensions = pair_kernel(pairs, scoring, xdrop)
        if len(extensions) != len(live):
            raise ValueError(
                f"pair kernel returned {len(extensions)} results for "
                f"{len(live)} extensions"
            )
        for index, ext in zip(live, extensions):
            sides[index] = ext
    results = []
    for job, left, right, anchor in zip(
        jobs, sides[: len(jobs)], sides[len(jobs) :], prepared.seed_scores, strict=True
    ):
        seed = job.seed
        results.append(
            SeedAlignmentResult(
                score=int(left.best_score + right.best_score + anchor),
                left=left,
                right=right,
                seed_score=anchor,
                query_begin=seed.query_pos - left.query_end,
                query_end=seed.query_end + right.query_end,
                target_begin=seed.target_pos - left.target_end,
                target_end=seed.target_end + right.target_end,
            )
        )
    return results

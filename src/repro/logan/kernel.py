"""Functional LOGAN kernel: one kernel call over every extension of a batch.

The CUDA kernel of the paper assigns each extension to a GPU block and
computes its anti-diagonals with Algorithm 2.  In this reproduction
:func:`extend_pairs_batched` hands every extension of a batch to one call
of the C kernel (:mod:`repro.core.xdrop_native`), which sweeps each
extension over its own live band, as a block would; with tracing on, each
extension records the anti-diagonal width trace the GPU execution model
replays to estimate V100 time.  It is the one place the kernel is chosen:
the numpy batched sweep (:func:`repro.core.xdrop_batch.xdrop_extend_batch`)
runs only when the C kernel cannot be built.

:func:`extend_seed_batch` is the library's single batch seed-extension
path: host preprocessing, one pair-kernel call over the non-empty sides,
zero-score placeholders for seed-flush sides, and the left + seed + right
join.  The ``batched`` and ``logan`` engines both run it with
:func:`extend_pairs_batched` as the pair kernel.

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
from ..core.xdrop_native import native_kernel
from ..perf.parallel import available_workers
from .host import prepare_batch

__all__ = [
    "empty_extension",
    "extend_pairs_batched",
    "extend_seed_batch",
    "kernel_name",
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


def kernel_name() -> str:
    """The kernel :func:`extend_pairs_batched` runs: ``native`` or ``numpy``."""
    return "native" if native_kernel().available else "numpy"


def extend_pairs_batched(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    scoring: ScoringScheme,
    xdrop: int,
    *,
    workers: int = 1,
    trace: bool = True,
    stats: BatchKernelStats | None = None,
) -> list[ExtensionResult]:
    """The batched pair kernel of the ``batched`` and ``logan`` engines.

    Runs the C kernel (:mod:`repro.core.xdrop_native`, built on the first
    call) whenever it loaded; with ``workers > 1`` the packed batch is split
    across that many threads.  Only when the C kernel cannot be built does
    one numpy sweep (:func:`repro.core.xdrop_batch.xdrop_extend_batch`,
    with its default compaction and tiling) run instead.  Results are
    identical either way.

    ``stats``, when given, collects the call's
    :class:`~repro.core.xdrop_batch.BatchKernelStats`.  The C kernel pads
    nothing, so its ``steps`` and ``row_steps`` are both the sum of the
    extensions' anti-diagonals.
    """
    native = native_kernel()
    if not native.available:
        return xdrop_extend_batch(
            pairs, scoring=scoring, xdrop=xdrop, trace=trace, stats=stats
        )
    results = native.extend(
        pairs, scoring, xdrop, trace=trace, threads=available_workers(workers)
    )
    if stats is not None:
        steps = sum(ext.anti_diagonals for ext in results)
        stats.rows += len(results)
        stats.steps += steps
        stats.row_steps += steps
        stats.active_row_steps += steps
        stats.cells += sum(ext.cells_computed for ext in results)
        stats.dtype = stats.dtype or "int64"
    return results


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

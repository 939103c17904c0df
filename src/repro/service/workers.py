"""Sharded worker pool: route formed batches through the engine registry.

One formed batch is split across ``num_workers`` shards by the multi-GPU
load balancer (:class:`repro.logan.scheduler.LoadBalancer`, ``"cells"``
policy by default) — the paper's host-side device partitioning reused as a
worker-sharding policy, so each worker/simulated device receives a similar
number of estimated DP cells rather than a similar job count.  Every shard
runs through the same :class:`~repro.engine.AlignmentEngine`, and results
are scattered back into submission order, so sharding never changes what a
caller observes (exact engines stay bit-identical).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from ..core.job import AlignmentJob, BatchWorkSummary
from ..core.result import SeedAlignmentResult
from ..core.xdrop_batch import BatchKernelStats
from ..engine.base import AlignmentEngine
from ..errors import ServiceError
from ..logan.scheduler import LoadBalancer
from ..perf.timers import Timer

__all__ = ["WorkerStats", "ShardedWorkerPool"]


@dataclass
class WorkerStats:
    """Cumulative accounting of one worker shard."""

    worker_index: int
    batches: int = 0
    jobs: int = 0
    cells: int = 0
    seconds: float = 0.0


@dataclass
class PoolRun:
    """Result of pushing one formed batch through the pool.

    ``results`` is in the order of the *input* jobs, regardless of how the
    load balancer sharded them.
    """

    results: list[SeedAlignmentResult]
    summary: BatchWorkSummary
    elapsed_seconds: float
    shards_used: int = 1
    extras: dict = field(default_factory=dict)


class ShardedWorkerPool:
    """Runs engine batches across N load-balanced worker shards.

    Parameters
    ----------
    engine:
        The alignment engine every shard calls.
    num_workers:
        Number of shards.  ``1`` runs inline; more shards run concurrently
        on threads (the engines release no GIL, so this models — rather
        than delivers — device parallelism, exactly like the GPU layer).
    policy:
        Load-balancing policy, ``"cells"`` (default) or ``"count"``.
    xdrop:
        X value used by the balancer's per-job cell estimate.
    """

    def __init__(
        self,
        engine: AlignmentEngine,
        num_workers: int = 1,
        policy: str = "cells",
        xdrop: int = 100,
        obs=None,
    ) -> None:
        if num_workers <= 0:
            raise ServiceError(f"num_workers must be positive, got {num_workers}")
        self.engine = engine
        self.num_workers = int(num_workers)
        self.balancer = LoadBalancer(
            num_devices=self.num_workers, policy=policy, xdrop=xdrop
        )
        self.worker_stats = [WorkerStats(worker_index=i) for i in range(self.num_workers)]
        self._obs = obs
        if obs is not None:
            shard = ("shard",)
            self._shard_batches = obs.counter(
                "repro_worker_batches_total", "batches run per shard", shard
            )
            self._shard_jobs = obs.counter(
                "repro_worker_jobs_total", "jobs aligned per shard", shard
            )
            self._shard_cells = obs.counter(
                "repro_worker_cells_total", "DP cells aligned per shard", shard
            )
            self._shard_seconds = obs.counter(
                "repro_worker_busy_seconds_total", "wall seconds busy per shard", shard
            )
        else:
            self._shard_batches = None

    def run_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring=None,
        xdrop: int | None = None,
    ) -> PoolRun:
        """Align *jobs*, sharded across the pool; results in job order.

        *scoring*/*xdrop*, when given, override the engine's own defaults
        for this batch (forwarded to ``align_batch``).  The service always
        passes its own parameters here so the alignment is computed with
        exactly the values its content-addressed cache key records, even
        when the pool wraps an engine instance that was constructed with
        different defaults.
        """
        jobs = list(jobs)
        if not jobs:
            return PoolRun(results=[], summary=BatchWorkSummary(), elapsed_seconds=0.0,
                           shards_used=0)
        timer = Timer()
        with timer:
            assignments = [
                a for a in self.balancer.split(jobs) if a.num_jobs > 0
            ]

            def align(assignment):
                if self._obs is not None:
                    with self._obs.span(
                        "pool.shard",
                        shard=assignment.device_index,
                        jobs=assignment.num_jobs,
                    ):
                        return self.engine.align_batch(
                            assignment.take(jobs), scoring=scoring, xdrop=xdrop
                        )
                return self.engine.align_batch(
                    assignment.take(jobs), scoring=scoring, xdrop=xdrop
                )

            if len(assignments) == 1:
                batches = [align(assignments[0])]
            else:
                with ThreadPoolExecutor(max_workers=len(assignments)) as pool:
                    batches = list(pool.map(align, assignments))
        results: list[SeedAlignmentResult | None] = [None] * len(jobs)
        summary = BatchWorkSummary()
        kernel_stats: BatchKernelStats | None = None
        for assignment, batch in zip(assignments, batches, strict=True):
            # A shard returning a wrong number of results fails the batch.
            for job_index, result in zip(
                assignment.job_indices, batch.results, strict=True
            ):
                results[job_index] = result
            summary = summary.merge(batch.summary)
            stats = self.worker_stats[assignment.device_index]
            stats.batches += 1
            stats.jobs += assignment.num_jobs
            stats.cells += batch.summary.cells
            stats.seconds += batch.elapsed_seconds
            if self._shard_batches is not None:
                shard = str(assignment.device_index)
                self._shard_batches.inc(shard=shard)
                self._shard_jobs.inc(assignment.num_jobs, shard=shard)
                self._shard_cells.inc(batch.summary.cells, shard=shard)
                self._shard_seconds.inc(batch.elapsed_seconds, shard=shard)
            # Fold per-shard kernel telemetry into one fresh accumulator
            # (never mutate the engine-owned stats object); benchmarks read
            # it from the run's extras.
            shard_stats = batch.extras.get("kernel_stats")
            if shard_stats is not None:
                if kernel_stats is None:
                    kernel_stats = BatchKernelStats()
                kernel_stats.merge(shard_stats)
        assert all(r is not None for r in results)
        return PoolRun(
            results=results,  # type: ignore[arg-type]
            summary=summary,
            elapsed_seconds=timer.elapsed,
            shards_used=len(assignments),
            extras={"kernel_stats": kernel_stats} if kernel_stats is not None else {},
        )

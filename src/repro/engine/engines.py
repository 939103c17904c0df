"""Concrete alignment engines wrapping every aligner in the library.

Six engines ship with the package (names as registered):

==============  =====================================================  ======
name            implementation                                         exact
==============  =====================================================  ======
``reference``   per-job Python loop over the scalar reference kernel   yes
``vectorized``  per-job loop over the per-pair vectorised kernel       yes
``batched``     one call of the C kernel over the packed batch, each
                extension swept over its own live band
                (:mod:`repro.core.xdrop_native`); the numpy batched
                sweep when no C compiler is available
                (:func:`repro.core.xdrop_batch.xdrop_extend_batch`)    yes
``seqan``       SeqAn-like CPU batch runner + POWER9 platform model    yes
``ksw2``        ksw2-style affine Z-drop runner + Skylake model        no
``logan``       the ``batched`` kernel's one traced sweep, annotated
                with the V100 multi-GPU cost model
                (:class:`repro.logan.LoganAligner`)                     yes
==============  =====================================================  ======

``batched`` and ``logan`` share one batch path,
:func:`repro.logan.kernel.extend_seed_batch` (seed split, one pair-kernel
call over every non-empty side, and the left + seed + right join), and one
pair kernel, :func:`repro.logan.kernel.extend_pairs_batched`.

"exact" engines return scores, end positions, work accounting and band
traces identical to :func:`repro.core.xdrop.xdrop_extend_reference` on
every job; the parity test-suite enforces this.  All constructors share the
``(scoring, xdrop, workers, trace)`` signature so
:func:`repro.engine.get_engine` can build any of them uniformly; engines
that cannot use an option accept and ignore it (documented per class).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..baselines.ksw2_batch import Ksw2BatchAligner
from ..baselines.seqan_like import SeqAnBatchAligner
from ..core.job import AlignmentJob, summarize_results
from ..core.result import ExtensionResult, SeedAlignmentResult
from ..core.scoring import AffineScoringScheme, ScoringScheme
from ..core.seed_extend import extend_seed
from ..core.xdrop import xdrop_extend_reference
from ..core.xdrop_batch import BatchKernelStats
from ..core.xdrop_vectorized import xdrop_extend
from ..logan.kernel import extend_pairs_batched, extend_seed_batch, kernel_name
from ..obs.runtime import (
    LIVE_FRACTION_BUCKETS,
    emit_kernel_batch,
    get_observability,
)
from ..perf.parallel import parallel_map
from ..perf.timers import Timer
from .base import EngineBatchResult, register_engine

__all__ = [
    "ReferenceEngine",
    "VectorizedEngine",
    "BatchedEngine",
    "SeqAnEngine",
    "Ksw2Engine",
    "LoganEngine",
]


def _extend_job(job, scoring, xdrop, trace, kernel) -> SeedAlignmentResult:
    """Worker: one seed-and-extend alignment (module-level, picklable)."""
    return extend_seed(
        job.query, job.target, job.seed, scoring=scoring, xdrop=xdrop,
        kernel=kernel, trace=trace,
    )


class _EngineBase:
    """Shared configuration plumbing for the bundled engines."""

    name = "abstract"
    exact = True

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
    ) -> None:
        self.scoring = scoring if scoring is not None else ScoringScheme()
        self.xdrop = int(xdrop)
        self.workers = max(1, int(workers))
        self.trace = bool(trace)

    def _resolve(
        self, scoring: ScoringScheme | None, xdrop: int | None
    ) -> tuple[ScoringScheme, int]:
        return (
            self.scoring if scoring is None else scoring,
            self.xdrop if xdrop is None else int(xdrop),
        )

    def align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        """Align *jobs*, wrapped in a trace span + per-engine metrics.

        Subclasses implement :meth:`_align_batch`; the telemetry fold here
        is once per batch, so it stays on unconditionally.
        """
        ob = get_observability()
        with ob.span("engine.align_batch", engine=self.name, jobs=len(jobs)):
            result = self._align_batch(jobs, scoring=scoring, xdrop=xdrop)
        self._observe_batch(ob, result, len(jobs))
        return result

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        raise NotImplementedError  # pragma: no cover - abstract

    def _observe_batch(
        self, ob, result: EngineBatchResult, jobs: int
    ) -> None:
        reg = ob.registry
        labels = ("engine",)
        reg.counter(
            "repro_engine_batches_total", "engine batch calls", labels
        ).inc(engine=self.name)
        reg.counter(
            "repro_engine_jobs_total", "jobs aligned", labels
        ).inc(jobs, engine=self.name)
        reg.counter(
            "repro_engine_seconds_total", "wall seconds in align_batch", labels
        ).inc(result.elapsed_seconds, engine=self.name)
        stats = result.extras.get("kernel_stats") if result.extras else None
        if stats is not None and stats.rows:
            # Fresh per-call accumulator, so its totals *are* the deltas.
            kernel = kernel_name()
            emit_kernel_batch(
                kernel,
                pairs=stats.rows,
                cells=stats.cells,
                steps=stats.row_steps,
                dtype=stats.dtype or None,
                ob=ob,
            )
            reg.counter(
                "repro_kernel_compactions_total",
                "active-row compactions performed",
                ("kernel",),
            ).inc(stats.compactions, kernel=kernel)
            reg.histogram(
                "repro_kernel_live_fraction",
                "live fraction per batch call",
                ("kernel",),
                buckets=LIVE_FRACTION_BUCKETS,
            ).observe(stats.live_fraction, kernel=kernel)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(xdrop={self.xdrop})"


class _PerJobEngine(_EngineBase):
    """Engines that loop over jobs, one extension kernel call per side."""

    kernel = staticmethod(xdrop_extend)

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, xdrop = self._resolve(scoring, xdrop)
        timer = Timer()
        with timer:
            results = parallel_map(
                _extend_job,
                list(jobs),
                args=(scoring, xdrop, self.trace, self.kernel),
                workers=self.workers,
            )
        return EngineBatchResult(
            engine=self.name,
            results=list(results),
            summary=summarize_results(results),
            elapsed_seconds=timer.elapsed,
        )


class ReferenceEngine(_PerJobEngine):
    """Per-job scalar reference loop — the semantic oracle, and the slowest."""

    name = "reference"
    kernel = staticmethod(xdrop_extend_reference)


class VectorizedEngine(_PerJobEngine):
    """Per-job loop over the per-pair vectorised kernel (intra-sequence only)."""

    name = "vectorized"
    kernel = staticmethod(xdrop_extend)


class BatchedEngine(_EngineBase):
    """Inter-sequence batched engine: one kernel call over the whole batch.

    Runs :func:`repro.logan.kernel.extend_seed_batch` with the batched
    pair kernel (:func:`repro.logan.kernel.extend_pairs_batched`): all
    left- and right-extensions go to one call of the C kernel, each
    extension swept over its own band, mirroring LOGAN's
    one-block-per-extension GPU layout.  With ``workers > 1`` the batch is
    split across threads (scores and traces are unaffected).  Without a C
    compiler one numpy batched sweep runs instead.

    Every run attaches the kernel's
    :class:`~repro.core.xdrop_batch.BatchKernelStats` telemetry to the
    batch result as ``extras["kernel_stats"]``; the worker pools merge it
    across shards and benchmarks read it.
    """

    name = "batched"

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, xdrop = self._resolve(scoring, xdrop)
        stats = BatchKernelStats()
        pair_kernel = partial(
            extend_pairs_batched,
            workers=self.workers,
            trace=self.trace,
            stats=stats,
        )
        timer = Timer()
        with timer:
            results = extend_seed_batch(
                jobs, scoring, xdrop, pair_kernel, trace=self.trace
            )
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=summarize_results(results),
            elapsed_seconds=timer.elapsed,
            extras={"kernel_stats": stats},
        )


class SeqAnEngine(_EngineBase):
    """SeqAn-like CPU batch runner with the modeled POWER9 runtime."""

    name = "seqan"

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, xdrop = self._resolve(scoring, xdrop)
        aligner = SeqAnBatchAligner(
            scoring=scoring, xdrop=xdrop, workers=self.workers, trace=self.trace
        )
        batch = aligner.align_batch(jobs)
        return EngineBatchResult(
            engine=self.name,
            results=batch.results,
            summary=batch.summary,
            elapsed_seconds=batch.elapsed_seconds,
            modeled_seconds=batch.modeled_seconds,
            extras={"batch": batch},
        )


class Ksw2Engine(_EngineBase):
    """ksw2-style affine Z-drop runner with the modeled Skylake runtime.

    Not score-exact with the X-drop reference: the recurrence is affine-gap
    and the termination rule is Z-drop, so scores are comparable but not
    identical (``exact = False``).  The ``xdrop`` parameter is used as the
    Z-drop threshold, the mapping of LOGAN's benchmark harness.

    A non-default linear ``scoring`` has its match/mismatch scores carried
    over into the affine scheme (the gap terms keep ksw2's minimap2
    defaults, which have no linear equivalent); pass ``affine_scoring`` to
    control the affine scheme fully.
    """

    name = "ksw2"
    exact = False

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
        affine_scoring: AffineScoringScheme | None = None,
        bandwidth: int | None = None,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        self._explicit_affine = affine_scoring
        self.affine_scoring = affine_scoring or self._derive_affine(self.scoring)
        self.bandwidth = bandwidth

    @staticmethod
    def _derive_affine(scoring: ScoringScheme) -> AffineScoringScheme:
        """Affine scheme honouring a custom linear substitution scoring."""
        if scoring == ScoringScheme():
            return AffineScoringScheme()  # minimap2 map-pb defaults
        base = AffineScoringScheme()
        return AffineScoringScheme(
            match=scoring.match,
            mismatch=scoring.mismatch,
            gap_open=base.gap_open,
            gap_extend=base.gap_extend,
        )

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, zdrop = self._resolve(scoring, xdrop)
        affine = self._explicit_affine or self._derive_affine(scoring)
        aligner = Ksw2BatchAligner(
            scoring=affine,
            zdrop=zdrop,
            bandwidth=self.bandwidth,
            workers=self.workers,
        )
        batch = aligner.align_batch(jobs)
        results = []
        for job, (left, right), score in zip(
            jobs, batch.results, batch.scores, strict=True
        ):
            left_ext = self._to_extension(left)
            right_ext = self._to_extension(right)
            seed = job.seed
            results.append(
                SeedAlignmentResult(
                    score=int(score),
                    left=left_ext,
                    right=right_ext,
                    seed_score=seed.length * affine.match,
                    query_begin=seed.query_pos - left.query_end,
                    query_end=seed.query_end + right.query_end,
                    target_begin=seed.target_pos - left.target_end,
                    target_end=seed.target_end + right.target_end,
                )
            )
        return EngineBatchResult(
            engine=self.name,
            results=results,
            summary=batch.summary,
            elapsed_seconds=batch.elapsed_seconds,
            modeled_seconds=batch.modeled_seconds,
            extras={"batch": batch, "band": batch.band},
        )

    @staticmethod
    def _to_extension(res) -> ExtensionResult:
        return ExtensionResult(
            best_score=res.best_score,
            query_end=res.query_end,
            target_end=res.target_end,
            anti_diagonals=res.rows_computed,
            cells_computed=res.cells_computed,
            terminated_early=res.terminated_early,
        )


class LoganEngine(_EngineBase):
    """LOGAN batch aligner with the modeled V100 multi-GPU runtime.

    Runs one traced batched sweep (the ``batched`` engine's kernel) and
    annotates it with the multi-GPU cost model; see
    :class:`repro.logan.LoganAligner`.  ``trace`` is accepted for signature
    uniformity; LOGAN always traces (the GPU execution model replays the
    band traces).
    """

    name = "logan"

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        workers: int = 1,
        trace: bool = False,
        system=None,
        gpus: int | None = None,
        threads_per_block: int | None = None,
    ) -> None:
        super().__init__(scoring=scoring, xdrop=xdrop, workers=workers, trace=trace)
        from ..gpusim.multi_gpu import MultiGpuSystem
        from ..logan.batch import LoganAligner

        if system is None and gpus is not None:
            system = MultiGpuSystem.homogeneous(gpus)
        self.aligner = LoganAligner(
            system=system,
            scoring=self.scoring,
            xdrop=self.xdrop,
            threads_per_block=threads_per_block,
            workers=self.workers,
        )

    def _align_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring: ScoringScheme | None = None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        scoring, xdrop = self._resolve(scoring, xdrop)
        aligner = self.aligner
        if scoring is not aligner.scoring or xdrop != aligner.xdrop:
            from ..logan.batch import LoganAligner

            aligner = LoganAligner(
                system=aligner.system,
                scoring=scoring,
                xdrop=xdrop,
                threads_per_block=aligner._explicit_threads,
                workers=aligner.workers,
            )
        batch = aligner.align_batch(jobs)
        return EngineBatchResult(
            engine=self.name,
            results=batch.results,
            summary=batch.summary,
            elapsed_seconds=batch.elapsed_seconds,
            modeled_seconds=batch.modeled_seconds,
            extras={"batch": batch, "modeled_gcups": batch.modeled_gcups},
        )


register_engine("reference", ReferenceEngine)
register_engine("vectorized", VectorizedEngine)
register_engine("batched", BatchedEngine)
register_engine("seqan", SeqAnEngine)
register_engine("ksw2", Ksw2Engine)
register_engine("logan", LoganEngine)

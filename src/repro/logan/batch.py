"""LOGAN batch aligner: the library's main public entry point.

``LoganAligner`` reproduces the LOGAN execution flow for a batch of seed
alignments as an exact kernel run plus a cost model:

1. functional execution — host preprocessing (seed split, left-pair
   reversal) and one traced batched X-drop sweep over every extension of
   the batch (:func:`repro.logan.kernel.extend_seed_batch`), giving per-job
   seed alignment scores identical to the SeqAn-style reference;
2. multi-GPU load balancing — jobs are divided across devices by estimated
   work (:mod:`repro.logan.scheduler`);
3. per-device modeling — one GPU block per extension, two streams (left and
   right extensions), threads per block scheduled proportionally to X; the
   band traces of step 1 are replayed by :mod:`repro.gpusim` for the
   modeled V100 timing.

Scores never depend on the device count (the paper's "equivalent
accuracy"), so the kernel runs once whatever the GPU count; only the model
splits the work.  Every run returns both the *measured* wall-clock of the
Python sweep and the *modeled* wall-clock on the paper's V100 platform,
plus the breakdown (host, per-device, load-balancer overhead) needed by the
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from ..core.job import AlignmentJob, BatchWorkSummary, summarize_results
from ..core.result import SeedAlignmentResult
from ..core.scoring import ScoringScheme
from ..errors import ConfigurationError
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelExecutionModel, KernelTiming
from ..gpusim.multi_gpu import MultiGpuSystem, MultiGpuTiming
from ..gpusim.stream import StreamedTiming, compose_streams
from ..gpusim.trace import BlockWorkTrace, KernelWorkload
from ..gpusim.warp import KernelCostParameters
from ..perf.timers import Timer
from .host import HostModel, threads_for_xdrop
from .kernel import extend_pairs_batched, extend_seed_batch
from .scheduler import DeviceAssignment, LoadBalancer

__all__ = ["LoganBatchResult", "LoganAligner"]


@dataclass
class LoganBatchResult:
    """Results and timing of one LOGAN batch run.

    Attributes
    ----------
    results:
        Per-job seed alignment results, in job order.
    summary:
        Aggregate work accounting (cells, extensions, iterations).
    elapsed_seconds:
        Measured wall-clock of the Python kernel sweep (``0.0`` for a
        re-modeled batch).
    host_seconds:
        Modeled host preprocessing time on the paper's platform.
    multi_gpu:
        Modeled multi-GPU timing (max over devices + balancer overhead).
    per_device:
        Modeled per-device stream timings.
    assignments:
        The load balancer's per-device job assignment.
    kernel_timings:
        The individual (left, right) kernel timings per device, for the
        Roofline instrumentation and ablation benchmarks.
    threads_per_block:
        The thread count the aligner scheduled (proportional to X).
    replication:
        The sample-to-full-workload replication factor used for modeling.
    """

    results: list[SeedAlignmentResult]
    summary: BatchWorkSummary
    elapsed_seconds: float
    host_seconds: float
    multi_gpu: MultiGpuTiming
    per_device: list[StreamedTiming]
    assignments: list[DeviceAssignment]
    kernel_timings: list[tuple[KernelTiming, ...]]
    threads_per_block: int
    replication: float

    @property
    def modeled_seconds(self) -> float:
        """Modeled end-to-end seconds on the paper's platform."""
        return self.host_seconds + self.multi_gpu.total_seconds

    @property
    def modeled_gcups(self) -> float:
        """Modeled GCUPS (cells of the full represented workload / modeled time)."""
        cells = self.summary.cells * self.replication
        if self.modeled_seconds <= 0:
            return float("inf")
        return cells / self.modeled_seconds / 1e9

    def measured_gcups(self) -> float:
        """GCUPS of the measured Python run (sampled workload only)."""
        return self.summary.gcups(self.elapsed_seconds)

    def scores(self) -> list[int]:
        """Per-job alignment scores (left + seed + right)."""
        return [r.score for r in self.results]


class LoganAligner:
    """Batch X-drop aligner with the LOGAN execution model.

    Parameters
    ----------
    system:
        Multi-GPU system to model; defaults to a single Tesla V100.  Use
        :meth:`~repro.gpusim.multi_gpu.MultiGpuSystem.homogeneous` for the
        paper's 6- and 8-GPU configurations.
    scoring:
        Linear-gap scoring scheme.
    xdrop:
        X-drop threshold.
    threads_per_block:
        Threads scheduled per block; ``None`` (default) picks the
        X-proportional count the paper describes.
    workers:
        C-kernel threads of the functional execution (the batch is split
        across them; scores and traces are unaffected).
    host_model:
        Host preprocessing cost model.
    kernel_params:
        Instruction-cost constants of the GPU model (exposed for ablations).
    balancer_policy:
        ``"cells"`` (default) or ``"count"`` — see :class:`LoadBalancer`.

    The functional work is always one traced batched sweep over every
    extension of the batch; the system, thread schedule, cost parameters
    and balancer policy shape only the modeled runtimes.
    """

    def __init__(
        self,
        system: MultiGpuSystem | None = None,
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        threads_per_block: int | None = None,
        workers: int = 1,
        host_model: HostModel = HostModel(),
        kernel_params: KernelCostParameters | None = None,
        balancer_policy: str = "cells",
    ) -> None:
        if xdrop < 0:
            raise ConfigurationError("xdrop must be non-negative")
        self.system = system or MultiGpuSystem.homogeneous(1)
        self.scoring = scoring if scoring is not None else ScoringScheme()
        self.xdrop = int(xdrop)
        self.workers = max(1, int(workers))
        self.host_model = host_model
        self.kernel_params = kernel_params or KernelCostParameters()
        self.balancer_policy = balancer_policy
        self._explicit_threads = threads_per_block
        self._models = [
            KernelExecutionModel(device, params=self.kernel_params)
            for device in self.system.devices
        ]

    @classmethod
    def from_config(cls, config) -> "LoganAligner":
        """Build an aligner from an :class:`repro.api.AlignConfig`.

        ``engine_options`` may carry the LOGAN-specific knobs: ``gpus``
        (shorthand for a homogeneous system), ``system``,
        ``threads_per_block``, ``balancer_policy``, ``host_model`` and
        ``kernel_params``.  Unknown or shadowing
        options raise a :class:`ConfigurationError` naming the option, the
        same contract as :func:`repro.engine.base.engine_from_config`.
        """
        import inspect

        options = dict(getattr(config, "engine_options", None) or {})
        uniform = {"scoring", "xdrop", "workers"}
        shadowed = sorted(set(options) & uniform)
        if shadowed:
            raise ConfigurationError(
                f"engine_options: {', '.join(map(repr, shadowed))} shadow the "
                "uniform config fields of the same name; set them on the "
                "config itself"
            )
        accepted = {
            name
            for name in inspect.signature(cls.__init__).parameters
            if name != "self"
        } | {"gpus"}
        unknown = sorted(set(options) - accepted)
        if unknown:
            raise ConfigurationError(
                f"engine_options: {', '.join(map(repr, unknown))} not accepted "
                f"by LoganAligner; accepted: {', '.join(sorted(accepted - uniform))}"
            )
        system = options.pop("system", None)
        gpus = options.pop("gpus", None)
        if system is None and gpus is not None:
            system = MultiGpuSystem.homogeneous(int(gpus))
        return cls(
            system=system,
            scoring=config.scoring,
            xdrop=config.xdrop,
            workers=config.workers,
            **options,
        )

    # ------------------------------------------------------------------ #
    def threads_per_block_for(self, device: DeviceSpec) -> int:
        """Thread count scheduled per block on *device*."""
        if self._explicit_threads is not None:
            if self._explicit_threads <= 0:
                raise ConfigurationError("threads_per_block must be positive")
            return min(self._explicit_threads, device.max_threads_per_block)
        return threads_for_xdrop(self.xdrop, device, gap_penalty=abs(self.scoring.gap))

    # ------------------------------------------------------------------ #
    def _combine_streams(
        self, per_device_streams: Sequence[StreamedTiming | None]
    ) -> MultiGpuTiming:
        """Fold per-device timings, tolerating a batch with no kernel work.

        Every extension of a batch can be empty (seeds flush against both
        sequence ends — e.g. one-base pairs): no kernel launches, so the
        modeled GPU time is zero rather than a configuration error.
        """
        if any(stream is not None for stream in per_device_streams):
            return self.system.combine(per_device_streams)
        return MultiGpuTiming(
            per_device_seconds=(),
            host_overhead_seconds=0.0,
            total_seconds=0.0,
            cells=0,
        )

    def align_batch(
        self, jobs: Sequence[AlignmentJob], replication: float = 1.0
    ) -> LoganBatchResult:
        """Align a batch of jobs and model its execution on the GPU system.

        The jobs are aligned by one traced batched sweep (timed as
        ``elapsed_seconds``), then modeled exactly like
        :meth:`model_existing`.

        Parameters
        ----------
        jobs:
            The alignment jobs (candidate pairs plus seeds).
        replication:
            How many real alignments each job stands for.  ``1.0`` models
            exactly this batch; ``500.0`` models a workload 500x larger with
            the same per-pair distribution (used to extrapolate laptop-scale
            samples to the paper's 100 K-pair runs).
        """
        if not jobs:
            raise ConfigurationError("align_batch requires at least one job")
        if replication <= 0:
            raise ConfigurationError("replication must be positive")
        pair_kernel = partial(extend_pairs_batched, workers=self.workers, trace=True)
        timer = Timer()
        with timer:
            results = extend_seed_batch(
                jobs, self.scoring, self.xdrop, pair_kernel, trace=True
            )
        return self._model(jobs, results, replication, timer.elapsed)

    def model_existing(
        self,
        jobs: Sequence[AlignmentJob],
        results: Sequence[SeedAlignmentResult],
        replication: float = 1.0,
    ) -> LoganBatchResult:
        """Re-model already-aligned jobs on this aligner's GPU system.

        The functional output of a LOGAN batch (scores, extents, band
        traces) is independent of the GPU configuration, so a batch aligned
        once — by any aligner or exact engine run with tracing on — can be
        *re-modeled* on a different system (6 GPUs, different thread
        schedule, ablated cost parameters) without re-running the X-drop
        kernels.  The benchmark harness uses this to sweep GPU counts at the
        cost of a single alignment pass.

        ``results`` must be in the same order as ``jobs`` and carry a band
        trace on every non-empty side; an untraced side raises
        :class:`ConfigurationError` rather than modeling zero GPU time.
        """
        if len(jobs) != len(results):
            raise ConfigurationError("jobs and results must have the same length")
        if not jobs:
            raise ConfigurationError("model_existing requires at least one job")
        if replication <= 0:
            raise ConfigurationError("replication must be positive")
        return self._model(jobs, results, replication, 0.0)

    def _model(
        self,
        jobs: Sequence[AlignmentJob],
        results: Sequence[SeedAlignmentResult],
        replication: float,
        elapsed_seconds: float,
    ) -> LoganBatchResult:
        """Replay the results' band traces on every device of the system."""
        balancer = LoadBalancer(
            num_devices=self.system.num_devices,
            policy=self.balancer_policy,
            xdrop=self.xdrop,
            gap_penalty=abs(self.scoring.gap),
        )
        assignments = balancer.split(jobs)

        per_device_streams: list[StreamedTiming | None] = []
        kernel_timings: list[tuple[KernelTiming, ...]] = []
        for assignment, model, device in zip(
            assignments, self._models, self.system.devices
        ):
            if assignment.num_jobs == 0:
                per_device_streams.append(None)
                kernel_timings.append(tuple())
                continue
            threads = self.threads_per_block_for(device)
            device_timings: list[KernelTiming] = []
            for side in ("left", "right"):
                workload = KernelWorkload(replication=replication)
                for index in assignment.job_indices:
                    job = jobs[index]
                    if side == "left":
                        qlen, tlen = job.seed.query_pos, job.seed.target_pos
                    else:
                        qlen = job.query_length - job.seed.query_end
                        tlen = job.target_length - job.seed.target_end
                    if qlen == 0 or tlen == 0:
                        continue  # seed flush: no extension, no GPU block
                    ext = getattr(results[index], side)
                    if ext.band_widths is None:
                        raise ConfigurationError(
                            f"job {index}: the {side} extension has no band "
                            "trace; model results aligned with trace=True"
                        )
                    workload.add(BlockWorkTrace(ext.band_widths, qlen, tlen))
                if workload.sampled_blocks > 0:
                    device_timings.append(
                        model.execute(workload, threads_per_block=threads)
                    )
            if device_timings:
                per_device_streams.append(compose_streams(device_timings))
            else:
                per_device_streams.append(None)
            kernel_timings.append(tuple(device_timings))

        total_bases = sum(j.query_length + j.target_length for j in jobs)
        host_seconds = self.host_model.seconds(
            total_bases=int(round(total_bases * replication)),
            alignments=int(round(len(jobs) * replication)),
        )
        return LoganBatchResult(
            results=list(results),
            summary=summarize_results(results),
            elapsed_seconds=elapsed_seconds,
            host_seconds=host_seconds,
            multi_gpu=self._combine_streams(per_device_streams),
            per_device=[t for t in per_device_streams if t is not None],
            assignments=assignments,
            kernel_timings=kernel_timings,
            threads_per_block=self.threads_per_block_for(self.system.devices[0]),
            replication=float(replication),
        )

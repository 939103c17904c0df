"""Deterministic benchmark runners for the engine and service layers.

Both runners build the same fixed-seed synthetic workloads the historic
``benchmarks/bench_engines.py`` / ``benchmarks/bench_service.py`` scripts
used, so freshly measured entries are directly comparable with the
trajectory recorded before the subsystem existed.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.job import AlignmentJob
from ..core.scoring import ScoringScheme
from ..data import PairSetSpec, generate_pair_set
from ..engine import available_engines, get_engine, list_engines
from ..errors import ConfigurationError
from ..obs.provenance import build_provenance
from ..obs.runtime import get_observability
from ..perf.metrics import gcups
from ..perf.timers import Timer
from .schema import BenchEntry, BenchResult

__all__ = [
    "engine_bench_jobs",
    "service_bench_jobs",
    "run_engine_bench",
    "run_service_bench",
]

#: Workload shrink factors of ``quick`` mode (CI smoke scale).
_QUICK_PAIRS = 64
_QUICK_ENGINES = ("reference", "batched")


def engine_bench_jobs(pairs: int, rng_seed: int) -> list[AlignmentJob]:
    """The fixed engine-benchmark batch: 300-600 bp pairs, mid-read seeds."""
    return generate_pair_set(
        PairSetSpec(
            num_pairs=pairs,
            min_length=300,
            max_length=600,
            pairwise_error_rate=0.15,
            unrelated_fraction=0.1,
            seed_placement="middle",
            rng_seed=rng_seed,
        )
    )


def service_bench_jobs(pairs: int, rng_seed: int) -> list[AlignmentJob]:
    """The fixed service-benchmark workload: 200-900 bp, mid-read seeds."""
    return generate_pair_set(
        PairSetSpec(
            num_pairs=pairs,
            min_length=200,
            max_length=900,
            pairwise_error_rate=0.15,
            unrelated_fraction=0.1,
            seed_placement="middle",
            rng_seed=rng_seed,
        )
    )


def run_engine_bench(
    pairs: int = 256,
    xdrop: int = 50,
    seed: int = 2020,
    engines: Sequence[str] | None = None,
    scoring: ScoringScheme | None = None,
    repeats: int = 1,
    quick: bool = False,
    label: str = "",
    profile: str | None = None,
    min_length: int | None = None,
    max_length: int | None = None,
    error_rate: float | None = None,
) -> BenchEntry:
    """Time the requested engines on one fixed-seed batch.

    The scalar ``reference`` engine is always executed — it is the speed-up
    denominator and the score oracle — even when *engines* excludes it from
    the reported rows.  Exact engines are checked for bit-identical scores.
    With ``repeats > 1`` each engine reports its fastest run (noise floor
    for the regression gate).  ``quick`` shrinks the workload to the CI
    smoke scale and restricts the default engine set to
    ``reference``/``batched``; otherwise the default set is every
    *available* engine (optional engines whose dependency is missing are
    skipped unless named explicitly, which raises with the reason).

    With *profile* set, the batch comes from the workload bank
    (:func:`repro.workloads.generate_workload`) instead of the default
    random pair set; ``min_length``/``max_length``/``error_rate`` override
    the :class:`~repro.workloads.WorkloadSpec` defaults and are recorded in
    the entry signature so profile series never pair with mismatched
    baselines.
    """
    if pairs <= 0:
        raise ConfigurationError(f"pairs must be positive, got {pairs}")
    if repeats <= 0:
        raise ConfigurationError(f"repeats must be positive, got {repeats}")
    if profile is None and (
        min_length is not None or max_length is not None or error_rate is not None
    ):
        raise ConfigurationError(
            "min_length/max_length/error_rate tune the profile workload; "
            "pass profile=<name> to use them"
        )
    if quick:
        pairs = min(pairs, _QUICK_PAIRS)
    scoring = scoring if scoring is not None else ScoringScheme()
    names = list(engines) if engines else (
        list(_QUICK_ENGINES) if quick else available_engines()
    )
    unknown = sorted(set(names) - set(list_engines()))
    if unknown:
        raise ConfigurationError(
            f"unknown engine(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(list_engines())}"
        )
    workload_params: dict[str, Any] = {}
    if profile is None:
        jobs = engine_bench_jobs(pairs, seed)
    else:
        from ..workloads import WorkloadSpec, generate_workload

        spec_kwargs = dict(count=pairs, seed=seed, xdrop=xdrop, scoring=scoring)
        if min_length is not None:
            spec_kwargs["min_length"] = int(min_length)
        if max_length is not None:
            spec_kwargs["max_length"] = int(max_length)
        if error_rate is not None:
            spec_kwargs["error_rate"] = float(error_rate)
        spec = WorkloadSpec(**spec_kwargs)
        jobs = generate_workload(profile, spec).jobs
        workload_params = {
            "min_length": spec.min_length,
            "max_length": spec.max_length,
            "error_rate": spec.error_rate,
        }

    def best_run(name: str):
        engine = get_engine(name, scoring=scoring, xdrop=xdrop)
        best = None
        for _ in range(repeats):
            batch = engine.align_batch(jobs)
            if best is None or batch.elapsed_seconds < best.elapsed_seconds:
                best = batch
        return best

    ref_batch = best_run("reference")
    ref_scores = ref_batch.scores()

    rows: list[BenchResult] = []
    for name in names:
        batch = ref_batch if name == "reference" else best_run(name)
        kernel_stats = batch.extras.get("kernel_stats")
        rows.append(
            BenchResult(
                engine=name,
                measured_seconds=batch.elapsed_seconds,
                measured_gcups=batch.measured_gcups(),
                speedup_vs_scalar=(
                    ref_batch.elapsed_seconds / batch.elapsed_seconds
                    if batch.elapsed_seconds > 0
                    else float("inf")
                ),
                scores_identical_to_reference=batch.scores() == ref_scores,
                modeled_seconds=batch.modeled_seconds,
                cells=batch.summary.cells,
                kernel=kernel_stats.to_dict() if kernel_stats is not None else None,
            )
        )
    return BenchEntry(
        kind="engines",
        label=label,
        batch_size=len(jobs),
        xdrop=xdrop,
        rng_seed=seed,
        scoring={
            "match": scoring.match,
            "mismatch": scoring.mismatch,
            "gap": scoring.gap,
        },
        quick=quick,
        profile=profile or "",
        rows=rows,
        extra={"workload": workload_params} if workload_params else {},
        metrics=get_observability()
        .registry.snapshot(provenance=build_provenance(seed=seed))
        .to_dict(),
    )


#: Segments of the admission-triage benchmark workload and the ground
#: truth of each: ``True`` means the BELLA threshold can never accept the
#: pair (so rejecting it is correct), per the profile's metadata — the
#: ``length_skew`` short side is far below ``min_overlap`` and
#: ``unrelated`` pairs share nothing but the planted seed.  Spurious
#: candidates dominate real overlap traffic (they are why BELLA prunes
#: k-mers at all), so the mix is triage-heavy.
_PREFILTER_SEGMENTS = (
    ("pacbio", False),
    ("ont", False),
    ("length_skew", True),
    ("unrelated", True),
    ("unrelated", True),
    ("unrelated", True),
)


def _prefilter_bench_jobs(
    pairs: int, seed: int, xdrop: int, scoring: ScoringScheme
) -> tuple[list[AlignmentJob], list[str]]:
    """The mixed triage workload: related, skewed and spurious segments.

    Returns the jobs plus the per-job profile label; ground truth comes
    from :data:`_PREFILTER_SEGMENTS`.  Lengths are production-like
    (600-1200 bp) so related pairs clear the default ``min_overlap``.
    """
    from ..workloads import WorkloadSpec, generate_workload

    per_segment = max(1, pairs // len(_PREFILTER_SEGMENTS))
    jobs: list[AlignmentJob] = []
    labels: list[str] = []
    for offset, (profile, _) in enumerate(_PREFILTER_SEGMENTS):
        spec = WorkloadSpec(
            count=per_segment,
            seed=seed + offset,
            min_length=600,
            max_length=1200,
            xdrop=xdrop,
            scoring=scoring,
        )
        for job in generate_workload(profile, spec).jobs:
            jobs.append(job)
            labels.append(profile)
    for pair_id, job in enumerate(jobs):
        job.pair_id = pair_id
    return jobs, labels


def run_service_bench(
    pairs: int = 192,
    xdrop: int = 50,
    seed: int = 2020,
    batch_size: int = 48,
    workers: int = 1,
    quick: bool = False,
    label: str = "",
    prefilter: str = "off",
    prefilter_options: dict | None = None,
) -> BenchEntry:
    """Time the serving layer three ways on one fixed-seed workload.

    Rows: ``direct`` (one engine batch — the offline upper bound),
    ``per_job`` (one engine call per request — what the service replaces)
    and ``service`` (individual submissions through the FIFO batcher,
    plus a cache-served resubmission round recorded in ``extra``).  The
    ``speedup_vs_scalar`` column of the service rows is the speed-up over
    *per-job submission* — the serving layer's own scalar baseline.

    *workers* sets ``AlignConfig.workers`` of the service rows: the
    C-kernel threads each formed batch is split over.

    With ``prefilter != "off"`` the workload switches to the mixed
    triage bank (:func:`_prefilter_bench_jobs` — related pacbio/ont
    segments plus skewed and unrelated spurious-candidate segments with
    per-job ground truth) and a ``service_prefilter`` row times the same
    submissions through a service running the admission policy.  The
    entry's ``extra["prefilter"]`` records the per-outcome decision
    counts, reject precision/recall against the segment ground truth,
    the false-rejection count and the speed-up over the no-prefilter
    service row; such entries also fork their own baseline series.
    """
    from ..api import AlignConfig, ServiceConfig
    from ..service import AlignmentService

    if quick:
        pairs = min(pairs, 24)
        batch_size = min(batch_size, 8)
    scoring = ScoringScheme()
    labels: list[str] | None = None
    if prefilter != "off":
        jobs, labels = _prefilter_bench_jobs(pairs, seed, xdrop, scoring)
    else:
        jobs = service_bench_jobs(pairs, seed)
    engine = get_engine("batched", scoring=scoring, xdrop=xdrop)

    direct_timer = Timer()
    with direct_timer:
        direct = engine.align_batch(jobs)

    per_job_timer = Timer()
    per_job_scores = []
    with per_job_timer:
        for job in jobs:
            per_job_scores.append(engine.align_batch([job]).scores()[0])

    service = AlignmentService(
        config=AlignConfig(
            engine="batched",
            scoring=scoring,
            xdrop=xdrop,
            workers=workers,
            service=ServiceConfig(
                max_batch_size=batch_size,
                cache_capacity=4 * len(jobs),
            ),
        )
    )
    service_timer = Timer()
    with service_timer:
        tickets = service.submit_many(jobs)
        service.drain()
        service_scores = [t.result(timeout=120.0).score for t in tickets]
    resubmit_timer = Timer()
    with resubmit_timer:
        tickets2 = service.submit_many(jobs)
        service.drain()
        resubmit_scores = [t.result(timeout=120.0).score for t in tickets2]
    stats = service.stats()
    metrics = service.metrics_snapshot(
        provenance=build_provenance(seed=seed)
    ).to_dict()
    service.shutdown()

    pf_timer = None
    pf_results: list = []
    pf_tickets: list = []
    pf_stats = None
    if prefilter != "off":
        pf_service = AlignmentService(
            config=AlignConfig(
                engine="batched",
                scoring=scoring,
                xdrop=xdrop,
                workers=workers,
                service=ServiceConfig(
                    max_batch_size=batch_size,
                    cache_capacity=4 * len(jobs),
                    prefilter=prefilter,
                    prefilter_options=dict(prefilter_options or {}),
                ),
            )
        )
        try:
            pf_timer = Timer()
            with pf_timer:
                pf_tickets = pf_service.submit_many(jobs)
                pf_service.drain()
                pf_results = [t.result(timeout=120.0) for t in pf_tickets]
            pf_stats = pf_service.stats()
        finally:
            pf_service.shutdown()

    cells = direct.summary.cells

    def row(name: str, seconds: float, identical: bool) -> BenchResult:
        return BenchResult(
            engine=name,
            measured_seconds=seconds,
            measured_gcups=gcups(cells, seconds),
            speedup_vs_scalar=(
                per_job_timer.elapsed / seconds if seconds > 0 else float("inf")
            ),
            scores_identical_to_reference=identical,
            cells=cells,
        )

    rows = [
        row("direct", direct_timer.elapsed, True),
        row("per_job", per_job_timer.elapsed, per_job_scores == direct.scores()),
        row("service", service_timer.elapsed, service_scores == direct.scores()),
        row(
            "service_resubmit",
            resubmit_timer.elapsed,
            resubmit_scores == direct.scores(),
        ),
    ]
    extra = {
        "service_config": {
            "batch_size": batch_size,
            "workers": workers,
        },
        "batches_formed": stats.batches_formed,
        "mean_batch_size": stats.mean_batch_size,
        "cache_hit_rate": stats.cache.hit_rate,
    }
    if pf_timer is not None:
        from ..prefilter import PrefilterPolicy

        policy = PrefilterPolicy.from_options(prefilter_options)
        threshold = policy.threshold(scoring)
        truth_reject = [
            dict(_PREFILTER_SEGMENTS)[lab] for lab in labels
        ]
        rejected = [t.prefilter == "reject" for t in pf_tickets]
        true_rejections = sum(
            r and t for r, t in zip(rejected, truth_reject)
        )
        false_rejections = sum(
            r and not t for r, t in zip(rejected, truth_reject)
        )
        # The row's parity bit: in enforce mode rejected pairs answer the
        # placeholder by design, so "identical" means every admitted pair
        # matched the direct score AND every rejection was sound (the
        # direct result fails the policy's BELLA threshold).
        sound = all(
            not threshold.passes(d.score, d.overlap_length)
            if r
            else a.score == d.score
            for r, a, d in zip(rejected, pf_results, direct.results)
        )
        rows.append(row("service_prefilter", pf_timer.elapsed, sound))
        by_label: dict[str, int] = {}
        for lab, r in zip(labels, rejected):
            if r:
                by_label[lab] = by_label.get(lab, 0) + 1
        extra["prefilter"] = {
            "mode": prefilter,
            "policy": policy.to_dict(),
            "decisions": dict(pf_stats.prefilter_decisions),
            "rejected_by_label": by_label,
            "reject_precision": (
                true_rejections / sum(rejected) if sum(rejected) else 1.0
            ),
            "reject_recall": (
                true_rejections / sum(truth_reject)
                if sum(truth_reject)
                else 1.0
            ),
            "false_rejections": false_rejections,
            "speedup_vs_service": (
                service_timer.elapsed / pf_timer.elapsed
                if pf_timer.elapsed > 0
                else float("inf")
            ),
            "segments": [name for name, _ in _PREFILTER_SEGMENTS],
        }
        # Triage entries measure a different workload than the default
        # series; extra["workload"] forks the baseline signature so the
        # perf gate keeps comparing like with like.
        workload = extra.setdefault("workload", {})
        workload["prefilter"] = prefilter
        workload["prefilter_segments"] = len(_PREFILTER_SEGMENTS)
    entry = BenchEntry(
        kind="service",
        label=label,
        batch_size=len(jobs),
        xdrop=xdrop,
        rng_seed=seed,
        scoring={
            "match": scoring.match,
            "mismatch": scoring.mismatch,
            "gap": scoring.gap,
        },
        quick=quick,
        rows=rows,
        extra=extra,
        metrics=metrics,
    )
    return entry

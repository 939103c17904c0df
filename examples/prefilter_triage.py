#!/usr/bin/env python
"""Prefilter triage demo: the three admission outcomes and the bench axis.

Walks the :mod:`repro.prefilter` surface:

* k-mer-profile sketches and d2 distances on related vs unrelated reads,
* a :class:`~repro.prefilter.PrefilterPolicy` triaging a mixed workload
  into ``duplicate`` / ``reject`` / ``contested``,
* the service admission modes: ``advise`` (classify and count, results
  bit-identical) and ``enforce`` (reject-class pairs resolve instantly
  with the seed-only placeholder, never reaching an engine),
* the precision/recall scoring the bench axis records against the
  workload bank's ground-truth metadata.

Run from the repository root::

    PYTHONPATH=src python examples/prefilter_triage.py

The recorded bench entry (``repro-bench service --prefilter enforce``)
adds a ``service_prefilter`` row to ``BENCH_service.json`` with the same
precision/recall accounting shown here.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import AlignConfig, ServiceConfig
from repro.core import ScoringScheme
from repro.engine import get_engine
from repro.prefilter import PrefilterPolicy, rejected_result
from repro.service import AlignmentService
from repro.workloads import WorkloadSpec, generate_workload

SCORING = ScoringScheme(match=1, mismatch=-1, gap=-1)
XDROP = 20
SPEC = WorkloadSpec(
    count=24, seed=7, min_length=600, max_length=1200, xdrop=XDROP, scoring=SCORING
)


def config(mode: str) -> AlignConfig:
    return AlignConfig(
        engine="batched",
        scoring=SCORING,
        xdrop=XDROP,
        workers=2,
        service=ServiceConfig(max_batch_size=8, prefilter=mode),
    )


def main() -> None:
    # A triage-shaped mix: real read pairs, spurious k-mer candidates,
    # and one exact duplicate.
    related = generate_workload("pacbio", SPEC)
    unrelated = generate_workload("unrelated", SPEC)
    jobs = related.jobs + unrelated.jobs
    truth = [True] * len(related.jobs) + [False] * len(unrelated.jobs)
    dup = related.jobs[0]
    jobs.append(type(dup)(query=dup.query.copy(), target=dup.query.copy(), seed=dup.seed))
    truth.append(True)
    for pair_id, job in enumerate(jobs):
        job.pair_id = pair_id

    # --- 1. The three outcomes, straight from the policy ----------------
    policy = PrefilterPolicy()
    decisions = [policy.classify(job, SCORING) for job in jobs]
    for outcome in ("duplicate", "reject", "contested"):
        picks = [d for d in decisions if d.outcome == outcome]
        sample = picks[0] if picks else None
        print(
            f"{outcome:>9}: {len(picks):3d} pairs"
            + (f"   e.g. reason={sample.reason!r} d2={sample.distance}" if sample else "")
        )

    # --- 2. Zero false rejections against ground truth ------------------
    rejected = [i for i, d in enumerate(decisions) if d.outcome == "reject"]
    false_rejections = sum(1 for i in rejected if truth[i])
    print(
        f"\nreject precision: {1 - false_rejections / max(1, len(rejected)):.3f}"
        f"  (false rejections: {false_rejections})"
    )

    # --- 3. advise: counted but bit-identical ---------------------------
    direct = get_engine("batched", scoring=SCORING, xdrop=XDROP).align_batch(jobs)
    with AlignmentService(config=config("advise")) as svc:
        t0 = time.perf_counter()
        advised = svc.map(jobs)
        advise_s = time.perf_counter() - t0
        print(f"\nadvise:  identical={advised == direct.results}", end="")
        print(f"  decisions={svc.stats().prefilter_decisions}")

    # --- 4. enforce: rejects skip the kernel entirely -------------------
    with AlignmentService(config=config("enforce")) as svc:
        t0 = time.perf_counter()
        enforced = svc.map(jobs)
        enforce_s = time.perf_counter() - t0
        placeholders = sum(
            enforced[i] == rejected_result(jobs[i], SCORING) for i in rejected
        )
        admitted_identical = all(
            enforced[i] == direct.results[i]
            for i in range(len(jobs))
            if i not in set(rejected)
        )
        print(
            f"enforce: admitted identical={admitted_identical}"
            f"  placeholders={placeholders}/{len(rejected)}"
            f"  speedup vs advise: {advise_s / enforce_s:.2f}x"
        )


if __name__ == "__main__":
    main()

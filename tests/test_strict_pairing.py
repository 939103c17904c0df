"""Fault injection: a short result list must fail loudly at every pairing site.

Each site zips a kernel's per-job (or per-extension) results against its
inputs.  A truncated result list used to be zipped silently, dropping the
tail; with ``strict=True`` it raises instead.  Every test below shortens
the results of one layer by one entry and expects the layer above to
refuse them.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.api import AlignConfig
from repro.bella import BellaPipeline
from repro.core.scoring import ScoringScheme
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.logan import LoganAligner
from repro.logan.host import prepare_batch
from repro.logan.kernel import (
    EXTENSION_EXECUTORS,
    StreamExecution,
    run_extension_stream,
)

SHORT = "shorter than"


@pytest.fixture
def jobs():
    return generate_pair_set(
        PairSetSpec(
            num_pairs=4,
            min_length=120,
            max_length=300,
            pairwise_error_rate=0.1,
            seed_placement="middle",
            rng_seed=3,
        )
    )


def test_ksw2_engine_rejects_short_kernel_results(jobs, monkeypatch):
    import repro.engine.engines as engines

    class ShortKsw2(engines.Ksw2BatchAligner):
        def align_batch(self, batch_jobs):
            batch = super().align_batch(batch_jobs)
            batch.results = batch.results[:-1]
            return batch

    monkeypatch.setattr(engines, "Ksw2BatchAligner", ShortKsw2)
    with pytest.raises(ValueError, match=SHORT):
        get_engine("ksw2", xdrop=30).align_batch(jobs)


def test_extension_stream_rejects_short_executor_results(jobs):
    def short_executor(tasks, scoring, xdrop, workers):
        return EXTENSION_EXECUTORS["batched"](tasks, scoring, xdrop, workers)[:-1]

    tasks = prepare_batch(jobs, ScoringScheme()).right_tasks
    with pytest.raises(ValueError, match=SHORT):
        run_extension_stream(
            tasks, ScoringScheme(), xdrop=30, engine=short_executor
        )


def test_logan_batch_rejects_short_stream_results(jobs, monkeypatch):
    import repro.logan.batch as logan_batch

    real = logan_batch.run_extension_stream

    def short_stream(tasks, **kwargs):
        execution = real(tasks, **kwargs)
        return StreamExecution(
            results=execution.results[:-1], workload=execution.workload
        )

    monkeypatch.setattr(logan_batch, "run_extension_stream", short_stream)
    with pytest.raises(ValueError, match=SHORT):
        LoganAligner(xdrop=30).align_batch(jobs)


def test_bella_pipeline_rejects_short_alignment_results(tiny_reads, monkeypatch):
    pipeline = BellaPipeline(
        config=AlignConfig(engine="batched", xdrop=15),
        k=13,
        min_overlap=200,
        error_rate=0.08,
    )
    engine = pipeline.aligner
    real = engine.align_batch

    def short_batch(batch_jobs, *args, **kwargs):
        batch = real(batch_jobs, *args, **kwargs)
        return SimpleNamespace(results=batch.results[:-1], modeled_seconds=None)

    monkeypatch.setattr(engine, "align_batch", short_batch)
    with pytest.raises(ValueError, match=SHORT):
        pipeline.run(tiny_reads)

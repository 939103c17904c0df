"""Fault injection: a wrong-length result list must fail loudly at every pairing site.

Each site pairs a kernel's per-job (or per-extension) results with its
inputs.  A truncated result list used to be zipped silently, dropping the
tail; now it raises instead.  Every test below shortens (or lengthens) the
results of one layer by one entry and expects the layer above to refuse
them.
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace

import pytest

from repro.api import AlignConfig
from repro.bella import BellaPipeline
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine

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


#: Where each batch engine gets its per-extension results from.
PAIR_KERNELS = {
    "batched": "repro.engine.engines.extend_pairs_batched",
    "logan": "repro.logan.batch.extend_pairs_batched",
}

FAULTS = {
    "short": lambda results: results[:-1],
    "long": lambda results: results + results[:1],
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("engine", sorted(PAIR_KERNELS))
def test_seed_batch_join_rejects_wrong_length_kernel_results(
    jobs, monkeypatch, engine, fault
):
    module_name, attr = PAIR_KERNELS[engine].rsplit(".", 1)
    module = importlib.import_module(module_name)
    real = getattr(module, attr)

    def faulty_kernel(pairs, *args, **kwargs):
        return FAULTS[fault](real(pairs, *args, **kwargs))

    monkeypatch.setattr(module, attr, faulty_kernel)
    with pytest.raises(ValueError, match=f"results for {2 * len(jobs)} extensions"):
        get_engine(engine, xdrop=30).align_batch(jobs)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_seed_batch_join_rejects_wrong_length_fallback_results(
    jobs, monkeypatch, fault
):
    """Without the C kernel, the numpy sweep's results meet the same check."""
    from repro.core import xdrop_native
    from repro.logan import kernel

    monkeypatch.setattr(
        xdrop_native, "_KERNEL", xdrop_native.NativeKernel(None, "forced unavailable")
    )
    real = kernel.xdrop_extend_batch

    def faulty_sweep(pairs, **kwargs):
        return FAULTS[fault](real(pairs, **kwargs))

    monkeypatch.setattr(kernel, "xdrop_extend_batch", faulty_sweep)
    with pytest.raises(ValueError, match=f"results for {2 * len(jobs)} extensions"):
        get_engine("batched", xdrop=30).align_batch(jobs)


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


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("num_workers", [1, 2])
def test_worker_pool_rejects_wrong_length_shard_results(jobs, fault, num_workers):
    from repro.service.workers import ShardedWorkerPool

    engine = get_engine("batched", xdrop=30)
    real = engine.align_batch

    def faulty_batch(batch_jobs, *args, **kwargs):
        batch = real(batch_jobs, *args, **kwargs)
        batch.results = FAULTS[fault](batch.results)
        return batch

    engine.align_batch = faulty_batch
    pool = ShardedWorkerPool(engine, num_workers=num_workers, xdrop=30)
    with pytest.raises(ValueError, match="zip"):
        pool.run_batch(jobs)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_bella_prefilter_merge_rejects_wrong_length_results(
    tiny_reads, monkeypatch, fault
):
    pipeline = BellaPipeline(
        config=AlignConfig(engine="batched", xdrop=15),
        k=13,
        min_overlap=300,
        prefilter="enforce",
    )
    engine = pipeline.aligner
    real = engine.align_batch
    admitted = []

    def faulty_batch(batch_jobs, *args, **kwargs):
        admitted.append(len(batch_jobs))
        batch = real(batch_jobs, *args, **kwargs)
        return SimpleNamespace(
            results=FAULTS[fault](batch.results), modeled_seconds=None
        )

    monkeypatch.setattr(engine, "align_batch", faulty_batch)
    with pytest.raises(ValueError, match="admitted jobs"):
        pipeline.run(tiny_reads)
    assert admitted and admitted[0] > 0

"""Tests for the LOGAN batch aligner (kernel + host + multi-GPU model)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import SeqAnBatchAligner
from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.gpusim import MultiGpuSystem
from repro.logan import LoganAligner, extend_seed_batch
from repro.logan.kernel import empty_extension, extend_pairs_batched
from repro.workloads import WorkloadSpec, generate_workload, list_profiles


class TestExtendSeedBatch:
    def test_one_kernel_call_over_every_side(self, small_jobs, scoring):
        calls = []

        def kernel(pairs, scoring, xdrop):
            calls.append(len(pairs))
            return extend_pairs_batched(pairs, scoring, xdrop, trace=True)

        results = extend_seed_batch(small_jobs, scoring, 15, kernel, trace=True)
        assert calls == [2 * len(small_jobs)]  # mid-read seeds: no empty side
        batched = get_engine("batched", scoring=scoring, xdrop=15, trace=True)
        for ours, theirs in zip(
            results, batched.align_batch(small_jobs).results, strict=True
        ):
            assert repr(ours) == repr(theirs)  # every field, traces included

    def test_empty_sides_never_reach_the_kernel(self, start_seed_jobs, scoring):
        calls = []

        def kernel(pairs, scoring, xdrop):
            calls.append(len(pairs))
            return extend_pairs_batched(pairs, scoring, xdrop, trace=False)

        results = extend_seed_batch(start_seed_jobs, scoring, 15, kernel, trace=False)
        # Seeds at position 0 make every left extension empty.
        assert calls == [len(start_seed_jobs)]
        assert all(r.left == empty_extension(trace=False) for r in results)
        assert all(r.right.best_score > 0 for r in results)


class TestLoganAligner:
    def test_basic_batch(self, small_jobs):
        aligner = LoganAligner(xdrop=20)
        result = aligner.align_batch(small_jobs)
        assert len(result.results) == len(small_jobs)
        assert result.summary.alignments == len(small_jobs)
        assert result.modeled_seconds > 0
        assert result.host_seconds > 0
        assert result.multi_gpu.total_seconds > 0
        assert result.modeled_gcups > 0
        assert result.measured_gcups() > 0
        assert all(score > 0 for score in result.scores())

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            LoganAligner(xdrop=20).align_batch([])

    def test_invalid_replication_rejected(self, small_jobs):
        with pytest.raises(ConfigurationError):
            LoganAligner(xdrop=20).align_batch(small_jobs, replication=0)

    def test_negative_xdrop_rejected(self):
        with pytest.raises(ConfigurationError):
            LoganAligner(xdrop=-1)

    def test_start_seed_jobs(self, start_seed_jobs):
        aligner = LoganAligner(xdrop=20)
        result = aligner.align_batch(start_seed_jobs)
        assert all(r.left.best_score == 0 for r in result.results)
        assert all(r.query_begin == 0 for r in result.results)

    @pytest.mark.parametrize("gpus", [1, 3])
    def test_seed_at_position_zero_contributes_no_gpu_block(
        self, start_seed_jobs, gpus
    ):
        aligner = LoganAligner(system=MultiGpuSystem.homogeneous(gpus), xdrop=20)
        result = aligner.align_batch(start_seed_jobs)
        # Every left extension is empty: each busy device launches only its
        # right-extension kernel, one block per job.
        busy = [timings for timings in result.kernel_timings if timings]
        assert busy and all(len(timings) == 1 for timings in busy)
        assert sum(t[0].blocks for t in busy) == len(start_seed_jobs)

    @pytest.mark.parametrize("gpus", [1, 6])
    def test_one_kernel_sweep_for_any_gpu_count(self, small_jobs, monkeypatch, gpus):
        import repro.logan.batch as batch

        calls = []
        real = batch.extend_pairs_batched

        def counting(pairs, *args, **kwargs):
            calls.append(len(pairs))
            return real(pairs, *args, **kwargs)

        monkeypatch.setattr(batch, "extend_pairs_batched", counting)
        LoganAligner(system=MultiGpuSystem.homogeneous(gpus), xdrop=20).align_batch(
            small_jobs
        )
        assert calls == [2 * len(small_jobs)]

    def test_replication_scales_model_not_scores(self, small_jobs):
        aligner = LoganAligner(xdrop=20)
        base = aligner.align_batch(small_jobs, replication=1.0)
        scaled = aligner.align_batch(small_jobs, replication=250.0)
        assert scaled.scores() == base.scores()
        assert scaled.modeled_seconds > base.modeled_seconds
        # The variable part of the host time scales with replication; the
        # fixed per-batch setup cost does not.
        fixed = LoganAligner(xdrop=20).host_model.fixed_seconds
        assert scaled.host_seconds - fixed == pytest.approx(
            250 * (base.host_seconds - fixed), rel=0.01
        )

    def test_explicit_threads_override(self, small_jobs):
        aligner = LoganAligner(xdrop=20, threads_per_block=512)
        result = aligner.align_batch(small_jobs)
        assert result.threads_per_block == 512

    def test_invalid_explicit_threads(self, small_jobs):
        aligner = LoganAligner(xdrop=20, threads_per_block=-1)
        with pytest.raises(ConfigurationError):
            aligner.align_batch(small_jobs)

    def test_multi_gpu_distributes_jobs(self, small_jobs):
        aligner = LoganAligner(system=MultiGpuSystem.homogeneous(4), xdrop=20)
        result = aligner.align_batch(small_jobs)
        assigned = sorted(i for a in result.assignments for i in a.job_indices)
        assert assigned == list(range(len(small_jobs)))
        assert len(result.per_device) >= 1
        assert result.multi_gpu.devices >= 1

    def test_multi_gpu_reduces_device_time_for_large_batches(self, small_jobs):
        one = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=20)
        six = LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=20)
        # The fixture pairs are tiny (a few hundred bases); a large
        # replication factor makes the device work dominate the fixed
        # balancer overhead, which is the regime the paper's Tables show.
        replication = 2_000_000
        t1 = one.align_batch(small_jobs, replication=replication)
        t6 = six.align_batch(small_jobs, replication=replication)
        # The per-device execution time shrinks with more GPUs...
        assert max(t6.multi_gpu.per_device_seconds) < max(t1.multi_gpu.per_device_seconds)
        # ...and the end-to-end modeled time improves despite the balancer overhead.
        assert t6.modeled_seconds < t1.modeled_seconds

    def test_count_policy_option(self, small_jobs):
        aligner = LoganAligner(xdrop=20, balancer_policy="count")
        result = aligner.align_batch(small_jobs)
        assert len(result.results) == len(small_jobs)

    def test_model_existing_matches_full_run(self, small_jobs):
        # Re-modeling an aligned batch on the same system must reproduce the
        # full run's modeled time without re-running any alignment.
        aligner = LoganAligner(xdrop=25)
        full = aligner.align_batch(small_jobs, replication=1000.0)
        remodeled = aligner.model_existing(small_jobs, full.results, replication=1000.0)
        assert remodeled.modeled_seconds == pytest.approx(full.modeled_seconds, rel=1e-6)
        assert remodeled.scores() == full.scores()

    def test_model_existing_on_other_system(self, small_jobs):
        one = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=25)
        six = LoganAligner(system=MultiGpuSystem.homogeneous(6), xdrop=25)
        full1 = one.align_batch(small_jobs, replication=500_000.0)
        remodeled6 = six.model_existing(small_jobs, full1.results, replication=500_000.0)
        full6 = six.align_batch(small_jobs, replication=500_000.0)
        assert remodeled6.modeled_seconds == pytest.approx(full6.modeled_seconds, rel=1e-6)
        assert max(remodeled6.multi_gpu.per_device_seconds) < max(
            full1.multi_gpu.per_device_seconds
        )

    def test_model_existing_rejects_untraced_results(self, small_jobs):
        untraced = get_engine("batched", xdrop=25, trace=False).align_batch(small_jobs)
        with pytest.raises(ConfigurationError, match="band trace"):
            LoganAligner(xdrop=25).model_existing(small_jobs, untraced.results)

    def test_model_existing_accepts_untraced_empty_sides(self, start_seed_jobs):
        # Seed-flush sides launch no block, so they need no trace.
        aligner = LoganAligner(xdrop=25)
        full = aligner.align_batch(start_seed_jobs)
        results = [
            replace(r, left=empty_extension(trace=False)) for r in full.results
        ]
        remodeled = aligner.model_existing(start_seed_jobs, results)
        assert remodeled.modeled_seconds == full.modeled_seconds

    def test_model_existing_validation(self, small_jobs):
        aligner = LoganAligner(xdrop=25)
        full = aligner.align_batch(small_jobs)
        with pytest.raises(ConfigurationError):
            aligner.model_existing(small_jobs, full.results[:-1])
        with pytest.raises(ConfigurationError):
            aligner.model_existing([], [])
        with pytest.raises(ConfigurationError):
            aligner.model_existing(small_jobs, full.results, replication=0)


class TestAccuracyEquivalence:
    """The paper's 'equivalent accuracy' claim: LOGAN == SeqAn scores."""

    @pytest.mark.parametrize("xdrop", [5, 15, 50])
    def test_scores_match_seqan_reference(self, small_jobs, xdrop):
        logan = LoganAligner(xdrop=xdrop).align_batch(small_jobs)
        seqan = SeqAnBatchAligner(xdrop=xdrop).align_batch(small_jobs)
        assert logan.scores() == [r.score for r in seqan.results]

    def test_extents_match_seqan_reference(self, small_jobs):
        logan = LoganAligner(xdrop=25).align_batch(small_jobs)
        seqan = SeqAnBatchAligner(xdrop=25).align_batch(small_jobs)
        for a, b in zip(logan.results, seqan.results):
            assert (a.query_begin, a.query_end) == (b.query_begin, b.query_end)
            assert (a.target_begin, a.target_end) == (b.target_begin, b.target_end)

    def test_multi_gpu_does_not_change_scores(self, small_jobs):
        one = LoganAligner(system=MultiGpuSystem.homogeneous(1), xdrop=30)
        eight = LoganAligner(system=MultiGpuSystem.homogeneous(8), xdrop=30)
        assert one.align_batch(small_jobs).scores() == eight.align_batch(small_jobs).scores()


class TestOneSweepModelInvariant:
    """``align_batch`` is one traced sweep followed by ``model_existing``."""

    @pytest.mark.parametrize("profile", list_profiles())
    def test_align_batch_models_like_model_existing(self, profile):
        jobs = generate_workload(profile, WorkloadSpec(count=8, seed=5)).jobs
        traced = get_engine("batched", xdrop=20, trace=True).align_batch(jobs)
        for gpus in (1, 6):
            aligner = LoganAligner(system=MultiGpuSystem.homogeneous(gpus), xdrop=20)
            for replication in (1.0, 500.0):
                full = aligner.align_batch(jobs, replication=replication)
                remodeled = aligner.model_existing(
                    jobs, traced.results, replication=replication
                )
                assert full.modeled_seconds == remodeled.modeled_seconds
                assert (
                    full.multi_gpu.per_device_seconds
                    == remodeled.multi_gpu.per_device_seconds
                )
                assert full.scores() == remodeled.scores()

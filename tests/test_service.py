"""Tests of the asynchronous alignment service (repro.service).

Covers each stage in isolation — cache, queue, batcher, worker pool — and
the acceptance criterion end-to-end: jobs submitted individually through
the service must produce results bit-identical to one direct
``align_batch`` call on the batched engine, with real multi-job batches
formed and cache hits on resubmission.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import AlignConfig
from repro.bella import BellaPipeline
from repro.core import ScoringScheme, Seed
from repro.core.job import AlignmentJob
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.errors import ServiceError
from repro.service import (
    AdaptiveBatcher,
    AlignmentService,
    AlignmentTicket,
    BatchPolicy,
    ResultCache,
    BatchRunner,
    ServiceStats,
    SubmissionQueue,
    job_cache_key,
)

SCORING = ScoringScheme()


def mixed_jobs(num_pairs=16, rng_seed=11, min_length=120, max_length=700):
    """Deterministic mixed-length batch with mid-read seeds."""
    return generate_pair_set(
        PairSetSpec(
            num_pairs=num_pairs,
            min_length=min_length,
            max_length=max_length,
            pairwise_error_rate=0.15,
            unrelated_fraction=0.2,
            seed_placement="middle",
            rng_seed=rng_seed,
        )
    )


def tiny_job(text="ACGTACGTACGTACGT"):
    return AlignmentJob(query=text, target=text, seed=Seed(0, 0, 4))


class TestResultCache:
    def test_key_is_content_addressed(self):
        a = tiny_job()
        b = tiny_job()  # equal content, different object / pair_id
        b.pair_id = 99
        assert job_cache_key(a, SCORING, 10) == job_cache_key(b, SCORING, 10)

    def test_key_depends_on_parameters(self):
        job = tiny_job()
        base = job_cache_key(job, SCORING, 10)
        assert job_cache_key(job, SCORING, 20) != base
        assert job_cache_key(job, ScoringScheme(match=2), 10) != base
        other = AlignmentJob(
            query="ACGTACGTACGTACGT", target="ACGTACGTACGTACGT", seed=Seed(4, 4, 4)
        )
        assert job_cache_key(other, SCORING, 10) != base

    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        key = job_cache_key(tiny_job(), SCORING, 10)
        assert cache.get(key) is None
        cache.put(key, "result")
        assert cache.get(key) == "result"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_fresh_cache_gauge_refresh_is_safe(self):
        """Regression: zero-lookup snapshots must not divide by zero."""
        from repro.obs import get_observability

        obs = get_observability().scoped()
        cache = ResultCache(capacity=4, obs=obs)
        cache.refresh_gauges()
        stats = cache.stats()  # snapshot before any get()
        assert stats.lookups == 0
        assert stats.hit_rate == 0.0
        snap = obs.registry.snapshot()
        assert snap.value("repro_cache_hit_rate") == 0.0

    def test_hit_rate_gauge_tracks_lookups(self):
        from repro.obs import get_observability

        obs = get_observability().scoped()
        cache = ResultCache(capacity=4, obs=obs)
        cache.get("a")  # miss
        cache.put("a", 1)
        cache.get("a")  # hit
        snap = obs.registry.snapshot()
        assert snap.value("repro_cache_hit_rate") == pytest.approx(0.5)


class TestCacheKeyConfigRegression:
    """Two configs must never collide on one content-addressed key.

    Regression guard: the key has to include the *full* scoring scheme and
    the X-drop threshold, not just the sequence digests — otherwise a
    cache shared across parameter changes would serve results computed
    under a different configuration.
    """

    def test_full_scoring_scheme_participates(self):
        job = tiny_job()
        keys = {
            job_cache_key(job, ScoringScheme(match=1, mismatch=-1, gap=-1), 10),
            job_cache_key(job, ScoringScheme(match=2, mismatch=-1, gap=-1), 10),
            job_cache_key(job, ScoringScheme(match=1, mismatch=-2, gap=-1), 10),
            job_cache_key(job, ScoringScheme(match=1, mismatch=-1, gap=-2), 10),
        }
        assert len(keys) == 4  # every scoring field changes the address

    def test_xdrop_participates(self):
        job = tiny_job()
        assert len({job_cache_key(job, SCORING, x) for x in (0, 1, 10, 100)}) == 4

    def test_shared_cache_does_not_collide_across_configs(self):
        # Same sequences under two configs -> two distinct entries in one
        # physical cache, each lookup returning its own result.
        cache = ResultCache(capacity=8)
        job = tiny_job()
        key_a = job_cache_key(job, SCORING, 10)
        key_b = job_cache_key(job, ScoringScheme(match=2, mismatch=-2, gap=-2), 10)
        key_c = job_cache_key(job, SCORING, 99)
        cache.put(key_a, "result-a")
        cache.put(key_b, "result-b")
        cache.put(key_c, "result-c")
        assert cache.get(key_a) == "result-a"
        assert cache.get(key_b) == "result-b"
        assert cache.get(key_c) == "result-c"
        assert len(cache) == 3

    def test_engine_instance_with_other_defaults_cannot_poison_cache(self):
        # The service aligns with ITS OWN scoring/xdrop even when handed an
        # engine instance constructed with different defaults, so cached
        # results always match what the cache key claims.
        jobs = mixed_jobs(num_pairs=6, rng_seed=37, min_length=120, max_length=300)
        expected = get_engine("batched", scoring=SCORING, xdrop=7).align_batch(jobs)
        mismatched_engine = get_engine("batched", scoring=SCORING, xdrop=500)

        def work(results):
            # X changes the explored band, so the per-extension work
            # accounting is a reliable fingerprint of the threshold used.
            return [
                (r.left.cells_computed, r.right.cells_computed) for r in results
            ]

        # Precondition: the two thresholds genuinely disagree on this batch.
        assert work(mismatched_engine.align_batch(jobs).results) != work(
            expected.results
        )
        service = AlignmentService(engine=mismatched_engine, scoring=SCORING, xdrop=7)
        results = service.map(jobs)
        assert [r.score for r in results] == expected.scores()
        assert work(results) == work(expected.results)
        # And the cache serves the xdrop=7 results, not xdrop=500 ones.
        again = service.map(jobs)
        assert service.stats().cache.hits == len(jobs)
        assert work(again) == work(expected.results)
        service.shutdown()


class TestSubmissionQueue:
    def test_fifo_order_and_depth(self):
        queue = SubmissionQueue(capacity=8)
        tickets = [AlignmentTicket(tiny_job()) for _ in range(3)]
        queue.put_many(tickets)
        assert queue.depth == 3
        assert queue.pop(max_items=2) == tickets[:2]
        assert queue.pop(max_items=5) == tickets[2:]
        assert queue.pop() == []

    def test_backpressure_timeout(self):
        queue = SubmissionQueue(capacity=1)
        queue.put(AlignmentTicket(tiny_job()))
        with pytest.raises(ServiceError, match="backpressure"):
            queue.put(AlignmentTicket(tiny_job()), timeout=0.05)

    def test_blocked_put_resumes_after_pop(self):
        queue = SubmissionQueue(capacity=1)
        queue.put(AlignmentTicket(tiny_job()))
        done = threading.Event()

        def producer():
            queue.put(AlignmentTicket(tiny_job()), timeout=5.0)
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.02)
        assert not done.is_set()  # still blocked on the full queue
        queue.pop()
        assert done.wait(2.0)
        thread.join(timeout=2.0)

    def test_closed_queue_rejects(self):
        queue = SubmissionQueue(capacity=2)
        queue.close()
        with pytest.raises(ServiceError, match="closed"):
            queue.put(AlignmentTicket(tiny_job()))

    def test_invalid_capacity(self):
        with pytest.raises(ServiceError):
            SubmissionQueue(capacity=0)


class TestAdaptiveBatcher:
    def _ticket(self, length):
        seq = "ACGT" * (length // 4 + 1)
        return AlignmentTicket(
            AlignmentJob(query=seq[:length], target=seq[:length], seed=Seed(0, 0, 4))
        )

    def test_size_triggered_flush(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=3))
        assert batcher.add(self._ticket(100), now=0.0) is None
        assert batcher.add(self._ticket(100), now=0.0) is None
        batch = batcher.add(self._ticket(100), now=0.0)
        assert batch is not None and batch.size == 3 and batch.reason == "size"
        assert batcher.pending == 0

    def test_fifo_flushes_mixed_lengths_together_in_submission_order(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=4))
        tickets = [
            self._ticket(length) for length in (100, 1500, 100, 1500)
        ]  # 200 bp and 3 kb pairs interleaved
        for ticket in tickets[:-1]:
            assert batcher.add(ticket, now=0.0) is None
        batch = batcher.add(tickets[-1], now=0.0)
        assert batch is not None and batch.reason == "size"
        assert batch.tickets == tickets
        assert [j.query_length + j.target_length for j in batch.jobs()] == [
            200, 3000, 200, 3000
        ]
        assert batcher.pending == 0 and batcher.flush_all() == []

    def test_wait_triggered_flush(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=8, max_wait_seconds=0.5))
        batcher.add(self._ticket(100), now=10.0)
        assert batcher.due(now=10.2) == []
        assert batcher.next_deadline(now=10.2) == pytest.approx(0.3)
        due = batcher.due(now=10.6)
        assert len(due) == 1 and due[0].reason == "wait"
        assert batcher.next_deadline(now=10.6) is None

    def test_invalid_policy(self):
        with pytest.raises(ServiceError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ServiceError):
            BatchPolicy(max_wait_seconds=-1.0)


class TestBatchRunner:
    def test_one_engine_call_in_job_order(self):
        jobs = mixed_jobs(num_pairs=10, rng_seed=5)
        engine = get_engine("batched", scoring=SCORING, xdrop=30)
        run = BatchRunner(engine).run_batch(jobs)
        direct = engine.align_batch(jobs)
        assert run.results == direct.results
        assert run.summary == direct.summary
        assert run.extras["kernel_stats"] == direct.extras["kernel_stats"]

    def test_kernel_threads_do_not_change_the_run(self):
        jobs = mixed_jobs(num_pairs=8, rng_seed=6)
        single = BatchRunner(get_engine("batched", xdrop=20)).run_batch(jobs)
        threaded = BatchRunner(get_engine("batched", xdrop=20, workers=2)).run_batch(jobs)
        assert threaded.results == single.results
        assert threaded.extras["kernel_stats"] == single.extras["kernel_stats"]

    def test_batch_parameters_override_the_engine_defaults(self):
        jobs = mixed_jobs(num_pairs=6, rng_seed=7)
        runner = BatchRunner(get_engine("batched", scoring=SCORING, xdrop=60))
        run = runner.run_batch(jobs, scoring=SCORING, xdrop=15)
        want = get_engine("batched", scoring=SCORING, xdrop=15).align_batch(jobs)
        assert run.results == want.results


class TestAlignmentServiceEndToEnd:
    """The PR's acceptance criterion."""

    def test_individual_submissions_match_direct_batch(self):
        jobs = mixed_jobs(num_pairs=20, rng_seed=13)
        direct = get_engine("batched", scoring=SCORING, xdrop=30).align_batch(jobs)

        service = AlignmentService(
            engine="batched",
            scoring=SCORING,
            xdrop=30,
            policy=BatchPolicy(max_batch_size=6),
        )
        tickets = [service.submit(job) for job in jobs]
        service.drain()
        results = [t.result(timeout=30.0) for t in tickets]

        # Bit-identical to the direct batch call.
        for got, ref in zip(results, direct.results):
            assert got.score == ref.score
            assert got.query_begin == ref.query_begin
            assert got.query_end == ref.query_end
            assert got.target_begin == ref.target_begin
            assert got.target_end == ref.target_end
            assert got.left.best_score == ref.left.best_score
            assert got.right.best_score == ref.right.best_score

        stats = service.stats()
        assert stats.completed == len(jobs)
        # At least one genuinely multi-job batch was formed.
        assert stats.batches_formed >= 1
        assert max(t.batch_size for t in tickets) > 1
        assert stats.cells == direct.summary.cells

        # Resubmission: nonzero cache hit rate, identical results, no new work.
        tickets2 = [service.submit(job) for job in jobs]
        service.drain()
        assert all(t.cache_hit for t in tickets2)
        assert [t.result().score for t in tickets2] == direct.scores()
        stats2 = service.stats()
        assert stats2.cache.hit_rate > 0
        assert stats2.cells == stats.cells  # nothing re-aligned
        service.shutdown()

    def test_background_thread_mode(self):
        jobs = mixed_jobs(num_pairs=9, rng_seed=17)
        direct = get_engine("batched", scoring=SCORING, xdrop=25).align_batch(jobs)
        service = AlignmentService(
            engine="batched",
            scoring=SCORING,
            xdrop=25,
            policy=BatchPolicy(max_batch_size=4, max_wait_seconds=0.01),
        ).start()
        try:
            tickets = service.submit_many(jobs)
            # No drain(): the background loop must flush via size/wait.
            results = [t.result(timeout=30.0) for t in tickets]
            assert [r.score for r in results] == direct.scores()
        finally:
            service.shutdown()
        assert not service.running

    def test_map_convenience(self):
        jobs = mixed_jobs(num_pairs=6, rng_seed=19)
        with AlignmentService(engine="batched", scoring=SCORING, xdrop=20) as svc:
            results = svc.map(jobs)
        direct = get_engine("batched", scoring=SCORING, xdrop=20).align_batch(jobs)
        assert [r.score for r in results] == direct.scores()

    def test_submit_after_shutdown_raises(self):
        service = AlignmentService(engine="batched")
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit(tiny_job())

    def test_stats_snapshot_shape(self):
        service = AlignmentService(engine="batched")
        service.map(mixed_jobs(num_pairs=4, rng_seed=23))
        payload = service.stats().to_dict()
        for key in (
            "submitted",
            "completed",
            "batches_formed",
            "cache_hit_rate",
            "throughput_gcups",
        ):
            assert key in payload
        assert payload["throughput_gcups"] >= 0
        service.shutdown()

    def test_stats_carry_no_batch_size_hint(self):
        # The kernel-telemetry batch-size hint had no reader and is gone,
        # from the snapshot and from the service's metrics registry.
        hint_keys = {"kernel_live_fraction", "suggested_batch_size"}
        assert not hint_keys & set(ServiceStats().to_dict())
        with AlignmentService(config=AlignConfig(engine="batched")) as service:
            service.map(mixed_jobs(num_pairs=4, rng_seed=23))
            assert not hint_keys & set(service.stats().to_dict())
            names = service.metrics_snapshot().names()
        assert "repro_kernel_suggested_batch_size" not in names
        assert "repro_kernel_live_fraction" not in names

    def test_inline_overflow_drains_instead_of_deadlocking(self):
        # Inline mode has no background consumer, so a full queue must
        # trigger a synchronous drain rather than a backpressure timeout:
        # submitting far more jobs than queue_capacity has to succeed.
        service = AlignmentService(
            engine="batched",
            scoring=SCORING,
            xdrop=20,
            queue_capacity=3,
            submit_timeout=0.1,
            policy=BatchPolicy(max_batch_size=64),
        )
        jobs = mixed_jobs(num_pairs=8, rng_seed=29)
        results = service.map(jobs)
        direct = get_engine("batched", scoring=SCORING, xdrop=20).align_batch(jobs)
        assert [r.score for r in results] == direct.scores()
        service.shutdown()

    def test_background_submit_counters_are_consistent(self):
        jobs = mixed_jobs(num_pairs=12, rng_seed=31)
        service = AlignmentService(
            engine="batched",
            scoring=SCORING,
            xdrop=20,
            policy=BatchPolicy(max_batch_size=3, max_wait_seconds=0.005),
        ).start()
        try:
            tickets = service.submit_many(jobs + jobs)  # duplicates race the loop
            for t in tickets:
                t.result(timeout=30.0)
            # Give the loop no chance to be mid-dispatch, then check books.
            service.drain()
            stats = service.stats()
            assert stats.submitted == 24
            assert stats.completed == 24
        finally:
            service.shutdown()


class TestServiceUnderLoad:
    """Concurrent producers hammering a background service.

    The serving contract under load: no ticket is ever dropped (every one
    resolves), the cache/submission books balance exactly, and every
    result is bit-identical to one direct ``align_batch`` call.
    """

    NUM_PRODUCERS = 4

    @staticmethod
    def _skewed_jobs():
        # A few huge jobs among many small ones (the distribution the
        # "cells" balancer exists for), mid-read seeds.
        big = mixed_jobs(num_pairs=3, rng_seed=41, min_length=900, max_length=1200)
        small = mixed_jobs(num_pairs=21, rng_seed=43, min_length=80, max_length=220)
        return big + small

    def test_no_dropped_tickets_and_bit_identical_results(self):
        jobs = self._skewed_jobs()
        direct = get_engine("batched", scoring=SCORING, xdrop=25).align_batch(jobs)
        service = AlignmentService(
            engine=get_engine("batched", scoring=SCORING, xdrop=25, workers=2),
            scoring=SCORING,
            xdrop=25,
            policy=BatchPolicy(max_batch_size=5, max_wait_seconds=0.005),
        ).start()
        try:
            per_thread: list[list] = [[] for _ in range(self.NUM_PRODUCERS)]
            errors: list[BaseException] = []

            def producer(slot: int) -> None:
                try:
                    # Each producer submits the full skewed workload, one
                    # job at a time, racing the background loop.
                    for job in jobs:
                        per_thread[slot].append(service.submit(job))
                except BaseException as error:  # pragma: no cover - fail loud
                    errors.append(error)

            threads = [
                threading.Thread(target=producer, args=(slot,), daemon=True)
                for slot in range(self.NUM_PRODUCERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors
            assert all(not t.is_alive() for t in threads)

            # No dropped tickets: every single one resolves...
            all_tickets = [t for bucket in per_thread for t in bucket]
            assert len(all_tickets) == self.NUM_PRODUCERS * len(jobs)
            results = [t.result(timeout=30.0) for t in all_tickets]
            assert all(t.done() for t in all_tickets)

            # ...bit-identically to the direct batch call, per producer.
            for bucket in per_thread:
                got = [t.result(timeout=1.0) for t in bucket]
                for res, ref in zip(got, direct.results):
                    assert res.score == ref.score
                    assert res.query_begin == ref.query_begin
                    assert res.query_end == ref.query_end
                    assert res.target_begin == ref.target_begin
                    assert res.target_end == ref.target_end
                    assert res.left.best_score == ref.left.best_score
                    assert res.right.best_score == ref.right.best_score
            assert len(results) == len(all_tickets)

            service.drain()  # settle any jobs still in the batcher
            stats = service.stats()
            # Cache-hit accounting balances exactly: every submission is
            # either a hit or a miss, everything submitted completed, and
            # nothing waits in the queue or the bins.
            total = self.NUM_PRODUCERS * len(jobs)
            assert stats.submitted == total
            assert stats.completed == total
            assert stats.cache.hits + stats.cache.misses == stats.cache.lookups
            assert stats.cache.lookups == total
            assert stats.queue_depth == 0 and stats.batcher_pending == 0
            # Every distinct pair misses at least once; whether duplicate
            # submissions hit depends on the race between producers and the
            # dispatch loop, so only the lower bound is deterministic here
            # (guaranteed hits are asserted by the settle-then-resubmit
            # test below).
            assert stats.cache.misses >= len(jobs)
        finally:
            service.shutdown()

    def test_resubmission_after_settle_is_all_hits(self):
        jobs = self._skewed_jobs()[:12]
        service = AlignmentService(
            engine="batched", scoring=SCORING, xdrop=25,
            policy=BatchPolicy(max_batch_size=4, max_wait_seconds=0.005),
        ).start()
        try:
            for t in service.submit_many(jobs):
                t.result(timeout=30.0)
            before = service.stats()

            hits: list[bool] = []
            lock = threading.Lock()

            def producer() -> None:
                tickets = [service.submit(job) for job in jobs]
                resolved = [t.result(timeout=30.0) for t in tickets]
                assert len(resolved) == len(jobs)
                with lock:
                    hits.extend(t.cache_hit for t in tickets)

            threads = [
                threading.Thread(target=producer, daemon=True)
                for _ in range(self.NUM_PRODUCERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)

            # The workload is fully cached: every concurrent resubmission
            # is a hit, and no new alignment work happens.
            assert len(hits) == self.NUM_PRODUCERS * len(jobs)
            assert all(hits)
            after = service.stats()
            assert after.cache.hits == before.cache.hits + len(hits)
            assert after.cells == before.cells
        finally:
            service.shutdown()


class TestServiceBackedPipeline:
    def test_pipeline_via_service_matches_engine_path(self, tiny_reads):
        engine_pipeline = BellaPipeline(engine="batched", k=13, xdrop=15, min_overlap=300)
        expected = engine_pipeline.run(tiny_reads)

        service = AlignmentService(engine="batched", xdrop=15)
        service_pipeline = BellaPipeline(
            service=service, k=13, xdrop=15, min_overlap=300
        )
        got = service_pipeline.run(tiny_reads)
        assert got.accepted_pairs() == expected.accepted_pairs()
        assert [o.score for o in got.overlaps] == [o.score for o in expected.overlaps]

        # A second run over the same reads is served from the cache.
        service_pipeline.run(tiny_reads)
        assert service.stats().cache.hits > 0
        service.shutdown()

    def test_service_conflicts_with_engine(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="not both"):
            BellaPipeline(service=AlignmentService(), engine="batched")


class TestDispatchResultCountGuard:
    """Regression: a mismatched engine result list must fail the batch.

    Before the guard, ``_dispatch`` zipped a truncated result list against
    the batch's tickets — the zip stopped at the shorter side, silently
    dropping the tail and leaving those submitters blocked forever.
    """

    def truncate_pool(self, service):
        """Fault-inject the worker pool: drop the last result of a batch."""
        orig = service.pool.run_batch

        def run_batch(jobs, **kwargs):
            run = orig(jobs, **kwargs)
            if len(run.results) > 1:
                run.results.pop()
            return run

        service.pool.run_batch = run_batch
        return orig

    def test_truncated_results_fail_every_ticket_loudly(self):
        jobs = mixed_jobs(num_pairs=6, rng_seed=19)
        service = AlignmentService(
            engine="batched",
            scoring=SCORING,
            xdrop=30,
            policy=BatchPolicy(max_batch_size=16),
        )
        try:
            self.truncate_pool(service)
            tickets = service.submit_many(jobs)
            service.drain()
            for ticket in tickets:
                with pytest.raises(
                    ServiceError, match="refusing to scatter"
                ) as excinfo:
                    ticket.result(timeout=10.0)
                # The error names both counts so the log is diagnosable.
                assert "5 results" in str(excinfo.value)
                assert "batch of 6" in str(excinfo.value)
            # No ticket was resolved from the truncated list.
            assert service.stats().completed == 0
        finally:
            service.shutdown()

    def test_service_survives_and_serves_after_the_failure(self):
        jobs = mixed_jobs(num_pairs=4, rng_seed=23)
        service = AlignmentService(
            engine="batched",
            scoring=SCORING,
            xdrop=30,
            policy=BatchPolicy(max_batch_size=8),
        )
        try:
            original = self.truncate_pool(service)
            failed = service.submit_many(jobs)
            service.drain()
            for ticket in failed:
                with pytest.raises(ServiceError):
                    ticket.result(timeout=10.0)
            # Heal the pool: the same service keeps serving correctly.
            service.pool.run_batch = original
            direct = get_engine(
                "batched", scoring=SCORING, xdrop=30
            ).align_batch(jobs)
            retried = service.submit_many(jobs)
            service.drain()
            scores = [t.result(timeout=10.0).score for t in retried]
            assert scores == direct.scores()
        finally:
            service.shutdown()

    def test_durable_rows_are_released_for_redelivery(self, tmp_path):
        from repro.api import AlignConfig, ServiceConfig

        jobs = mixed_jobs(num_pairs=4, rng_seed=29)
        config = AlignConfig(
            engine="batched",
            scoring=SCORING,
            xdrop=30,
            service=ServiceConfig(
                max_batch_size=8,
                cache_capacity=0,
                state_path=str(tmp_path / "state.sqlite"),
            ),
        )
        service = AlignmentService(config=config)
        try:
            self.truncate_pool(service)
            tickets = service.submit_many(jobs)
            pending_before = service.store.pending_count()
            service.drain()
            for ticket in tickets:
                with pytest.raises(ServiceError):
                    ticket.result(timeout=10.0)
            # The rows went inflight for the dispatch, then back to
            # pending when the mismatched batch was refused — a restart
            # redelivers them instead of losing them.
            assert service.store.pending_count() == pending_before
        finally:
            service.shutdown()

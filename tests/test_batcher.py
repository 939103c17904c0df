"""Tests of the service's FIFO batch former (:mod:`repro.service.batcher`).

The batcher is the one place the service decides how batches are formed:
pending tickets wait in a single first-in-first-out list, whatever their
lengths, and flush in submission order on ``max_batch_size``, on
``max_wait_seconds`` or on drain.  These tests pin that contract — order,
flush triggers, counters and telemetry — at the batcher and through a
running service.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.api import AlignConfig, ServiceConfig
from repro.core import Seed
from repro.core.job import AlignmentJob
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.errors import ServiceError
from repro.obs import Tracer
from repro.service import (
    AdaptiveBatcher,
    AlignmentService,
    AlignmentTicket,
    BatchPolicy,
    FormedBatch,
)


def ticket(length=100):
    seq = "ACGT" * (length // 4 + 1)
    return AlignmentTicket(
        AlignmentJob(query=seq[:length], target=seq[:length], seed=Seed(0, 0, 4))
    )


def feed(batcher, tickets, now=0.0):
    """Add every ticket; return the size-flushed batches in order."""
    formed = []
    for t in tickets:
        batch = batcher.add(t, now=now)
        if batch is not None:
            formed.append(batch)
    return formed


# --------------------------------------------------------------------------- #
# Policy.
# --------------------------------------------------------------------------- #
class TestBatchPolicy:
    def test_fields_are_size_and_wait_only(self):
        names = [f.name for f in dataclasses.fields(BatchPolicy)]
        assert names == ["max_batch_size", "max_wait_seconds"]

    def test_length_bin_knob_is_gone(self):
        with pytest.raises(TypeError):
            BatchPolicy(bin_width=500)

    def test_policy_is_frozen(self):
        policy = BatchPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.max_batch_size = 8

    @pytest.mark.parametrize("size", [0, -1, -64])
    def test_nonpositive_batch_size_rejected(self, size):
        with pytest.raises(ServiceError, match="max_batch_size"):
            BatchPolicy(max_batch_size=size)

    @pytest.mark.parametrize("wait", [-1e-9, -0.5])
    def test_negative_wait_rejected(self, wait):
        with pytest.raises(ServiceError, match="max_wait_seconds"):
            BatchPolicy(max_wait_seconds=wait)

    def test_edge_values_accepted(self):
        policy = BatchPolicy(max_batch_size=1, max_wait_seconds=0.0)
        assert policy.max_batch_size == 1 and policy.max_wait_seconds == 0.0


# --------------------------------------------------------------------------- #
# FIFO order and the size trigger.
# --------------------------------------------------------------------------- #
class TestFifoOrder:
    @pytest.mark.parametrize("size", [1, 2, 5, 16, 64])
    def test_batches_concatenate_to_submission_order(self, size):
        tickets = [ticket(100 + 37 * (i % 7)) for i in range(37)]
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=size))
        formed = feed(batcher, tickets)
        formed += batcher.flush_all()
        assert [t for batch in formed for t in batch.tickets] == tickets
        full, rest = divmod(len(tickets), size)
        assert [b.size for b in formed] == [size] * full + ([rest] if rest else [])
        assert [b.reason for b in formed] == ["size"] * full + (
            ["drain"] if rest else []
        )

    @pytest.mark.parametrize(
        "lengths",
        [
            (100, 200, 400, 800, 1600, 3200),  # ascending
            (3200, 1600, 800, 400, 200, 100),  # descending
            (100, 3200, 100, 3200, 100, 3200),  # interleaved short/long
        ],
        ids=["ascending", "descending", "interleaved"],
    )
    def test_length_never_reorders_a_batch(self, lengths):
        tickets = [ticket(n) for n in lengths]
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=len(tickets)))
        (batch,) = feed(batcher, tickets)
        assert batch.tickets == tickets
        assert [j.query_length for j in batch.jobs()] == list(lengths)

    def test_size_one_flushes_every_admission(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=1))
        for i in range(3):
            t = ticket()
            batch = batcher.add(t, now=float(i))
            assert batch is not None and batch.tickets == [t]
            assert batcher.pending == 0
        assert batcher.batches_formed == 3

    def test_pending_counts_the_fifo(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=10))
        for expected in range(1, 10):
            assert batcher.add(ticket(), now=0.0) is None
            assert batcher.pending == expected


# --------------------------------------------------------------------------- #
# The wait trigger.
# --------------------------------------------------------------------------- #
class TestWaitBound:
    def test_deadline_is_set_by_the_oldest_ticket(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=8, max_wait_seconds=1.0))
        batcher.add(ticket(), now=5.0)
        batcher.add(ticket(), now=5.9)  # a later arrival does not push it out
        assert batcher.next_deadline(now=5.9) == pytest.approx(0.1)
        (batch,) = batcher.due(now=6.0)
        assert batch.reason == "wait" and batch.size == 2

    def test_deadline_restarts_after_a_flush(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=2, max_wait_seconds=1.0))
        feed(batcher, [ticket(), ticket()], now=0.0)  # size flush
        batcher.add(ticket(), now=50.0)
        assert batcher.due(now=50.5) == []
        assert batcher.next_deadline(now=50.5) == pytest.approx(0.5)

    def test_overdue_deadline_clamps_at_zero(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=8, max_wait_seconds=0.1))
        batcher.add(ticket(), now=0.0)
        assert batcher.next_deadline(now=3.0) == 0.0

    def test_zero_wait_is_due_immediately(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=8, max_wait_seconds=0.0))
        batcher.add(ticket(), now=1.0)
        (batch,) = batcher.due(now=1.0)
        assert batch.reason == "wait" and batch.size == 1

    def test_empty_batcher_has_nothing_due(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_wait_seconds=0.0))
        assert batcher.due(now=100.0) == []
        assert batcher.next_deadline(now=100.0) is None
        assert batcher.flush_all() == []
        assert batcher.batches_formed == 0


# --------------------------------------------------------------------------- #
# Accounting and telemetry.
# --------------------------------------------------------------------------- #
class TestAccounting:
    def _walk_every_reason(self, batcher):
        feed(batcher, [ticket(), ticket(), ticket()], now=0.0)  # size
        batcher.add(ticket(), now=10.0)
        batcher.due(now=11.0)  # wait
        feed(batcher, [ticket(), ticket()], now=20.0)
        batcher.flush_all()  # drain

    def test_flush_reasons_and_batches_formed(self):
        batcher = AdaptiveBatcher(BatchPolicy(max_batch_size=3, max_wait_seconds=0.5))
        self._walk_every_reason(batcher)
        assert batcher.flush_reasons == {"size": 1, "wait": 1, "drain": 1}
        assert batcher.batches_formed == 3

    def test_formed_batch_views(self):
        tickets = [ticket(120), ticket(240)]
        batch = FormedBatch(tickets=tickets, reason="drain")
        assert batch.size == 2
        assert batch.jobs() == [t.job for t in tickets]

    def test_metrics_count_batches_by_reason_and_occupancy(self):
        bundle = obs.get_observability().scoped()
        batcher = AdaptiveBatcher(
            BatchPolicy(max_batch_size=3, max_wait_seconds=0.5), obs=bundle
        )
        self._walk_every_reason(batcher)
        snap = bundle.registry.snapshot()
        for reason in ("size", "wait", "drain"):
            assert snap.value("repro_batches_formed_total", reason=reason) == 1
        occupancy = snap.get("repro_batch_occupancy").histogram
        assert occupancy["count"] == 3
        assert occupancy["sum"] == 3 + 1 + 2

    def test_flush_span_carries_reason_and_size(self):
        bundle = obs.Observability(tracer=Tracer(enabled=True))
        collected = bundle.tracer.collect()
        batcher = AdaptiveBatcher(
            BatchPolicy(max_batch_size=2, max_wait_seconds=0.5), obs=bundle
        )
        feed(batcher, [ticket(), ticket()], now=0.0)
        batcher.add(ticket(), now=1.0)
        batcher.flush_all()
        spans = collected.named("batcher.flush")
        assert [(s.attributes["reason"], s.attributes["size"]) for s in spans] == [
            ("size", 2),
            ("drain", 1),
        ]


# --------------------------------------------------------------------------- #
# Through a running service.
# --------------------------------------------------------------------------- #
class TestServiceFormsFifoBatches:
    @pytest.fixture
    def jobs(self):
        return generate_pair_set(
            PairSetSpec(
                num_pairs=11,
                min_length=120,
                max_length=900,
                pairwise_error_rate=0.15,
                seed_placement="middle",
                rng_seed=29,
            )
        )

    def _service(self, size):
        return AlignmentService(
            config=AlignConfig(
                engine="batched",
                xdrop=25,
                service=ServiceConfig(max_batch_size=size, max_wait_seconds=60.0),
            )
        )

    def test_dispatch_sees_submission_order(self, jobs):
        service = self._service(4)
        dispatched = []
        original = service._dispatch

        def spy(batch):
            dispatched.append([t.job for t in batch.tickets])
            original(batch)

        service._dispatch = spy
        service.submit_many(jobs)
        service.drain()
        service.shutdown()
        assert [job for batch in dispatched for job in batch] == list(jobs)
        assert [len(batch) for batch in dispatched] == [4, 4, 3]

    def test_stats_report_fifo_flushes(self, jobs):
        service = self._service(4)
        tickets = service.submit_many(jobs)
        service.drain()
        stats = service.stats()
        service.shutdown()
        assert stats.batches_formed == 3
        assert stats.flush_reasons["size"] == 2
        assert stats.flush_reasons["drain"] == 1
        assert stats.mean_batch_size == pytest.approx(len(jobs) / 3)
        assert stats.busy_seconds > 0
        assert [t.batch_size for t in tickets] == [4] * 8 + [3] * 3

    @pytest.mark.parametrize("size", [1, 3, 11])
    def test_results_independent_of_batch_size(self, jobs, size):
        direct = get_engine("batched", xdrop=25).align_batch(jobs)
        service = self._service(size)
        results = service.map(jobs)
        service.shutdown()
        assert [r.score for r in results] == direct.scores()
        assert [(r.query_end, r.target_end) for r in results] == [
            (r.query_end, r.target_end) for r in direct.results
        ]

"""AlignmentService with the distributed knobs: C-kernel threads, durable
SQLite state, crash/restart recovery, and cache persistence.
"""

from __future__ import annotations

import pytest

from repro.api import AlignConfig, ServiceConfig
from repro.core.scoring import ScoringScheme
from repro.distrib.store import DurableStore
from repro.distrib.wire import cache_key_to_json
from repro.engine import get_engine
from repro.errors import ConfigurationError
from repro.obs import get_observability
from repro.service import AlignmentService
from repro.service.cache import ResultCache, job_cache_key

XDROP = 30
_SCORING = ScoringScheme()


def _config(state_path=None, **service_overrides) -> AlignConfig:
    return AlignConfig(
        engine="batched",
        scoring=_SCORING,
        xdrop=XDROP,
        workers=2,
        service=ServiceConfig(
            max_batch_size=8, state_path=state_path, **service_overrides
        ),
    )


def _run(service: AlignmentService, jobs) -> list:
    tickets = service.submit_many(jobs)
    service.drain()
    return [t.result(timeout=60.0) for t in tickets]


@pytest.fixture(scope="module")
def module_jobs():
    from repro.data.pairs import PairSetSpec, generate_pair_set

    spec = PairSetSpec(
        num_pairs=12,
        min_length=150,
        max_length=300,
        pairwise_error_rate=0.12,
        seed_length=11,
        seed_placement="middle",
        rng_seed=515,
    )
    return generate_pair_set(spec)


@pytest.fixture(scope="module")
def expected(module_jobs):
    engine = get_engine("batched", scoring=_SCORING, xdrop=XDROP)
    return engine.align_batch(module_jobs).results


class TestThreadedService:
    def test_results_bit_identical(self, module_jobs, expected):
        with AlignmentService(config=_config()) as service:
            assert service.engine.workers == 2
            assert _run(service, module_jobs) == expected
            snap = service.metrics_snapshot()
        assert snap.value("repro_service_completed_total") == len(module_jobs)
        assert snap.value("repro_service_cells_total") == sum(
            result.cells_computed for result in expected
        )

    @pytest.mark.parametrize(
        "removed",
        [{"num_workers": 2}, {"worker_policy": "batch"}, {"transport": "process"}],
        ids=lambda option: next(iter(option)),
    )
    def test_removed_service_options_are_rejected(self, removed):
        """Config files written for the process transport fail loudly."""
        (name,) = removed
        with pytest.raises(ConfigurationError, match=f"unknown option.*{name}"):
            ServiceConfig.from_dict(removed)
        with pytest.raises(ConfigurationError, match=f"unknown option.*{name}"):
            AlignConfig.from_dict({"service": removed})


class TestDurableState:
    def test_submissions_flow_through_the_store(
        self, tmp_path, module_jobs, expected
    ):
        path = str(tmp_path / "state.db")
        with AlignmentService(config=_config(state_path=path)) as service:
            assert _run(service, module_jobs) == expected
            stats = service.stats()
            assert stats.completed == len(module_jobs)
            snap = service.metrics_snapshot()
            assert snap.value("repro_durable_enqueued_total") == len(module_jobs)
            assert snap.value("repro_durable_completed_total") == len(module_jobs)
            assert snap.value("repro_durable_pending") == 0.0

        # The queue drained durably; the results table holds everything.
        with DurableStore(path, obs=get_observability().scoped()) as store:
            assert store.pending_count() == 0
            assert store.result_count() > 0

    def test_restart_answers_from_durable_results(
        self, tmp_path, module_jobs, expected
    ):
        path = str(tmp_path / "state.db")
        with AlignmentService(config=_config(state_path=path)) as service:
            _run(service, module_jobs)

        # New process, same state file: the in-memory cache is cold but
        # the durable results are not — no alignment work is redone.
        with AlignmentService(config=_config(state_path=path)) as service:
            tickets = service.submit_many(module_jobs)
            assert [t.result(timeout=60.0) for t in tickets] == expected
            assert all(t.cache_hit for t in tickets)
            assert service.stats().batches_formed == 0

    def test_crash_restart_redelivers_inflight_jobs(
        self, tmp_path, module_jobs, expected
    ):
        path = str(tmp_path / "state.db")
        scoped = get_observability().scoped()
        with DurableStore(path, obs=scoped) as store:
            ids = [
                store.enqueue(
                    cache_key_to_json(job_cache_key(job, _SCORING, XDROP)), job
                )
                for job in module_jobs
            ]
            # Simulate a crash mid-batch: some rows were dispatched
            # (inflight), none completed, and the process died here.
            store.mark_inflight(ids[: len(ids) // 2])

        with AlignmentService(config=_config(state_path=path)) as service:
            recovered = service.recovered_tickets
            assert len(recovered) == len(module_jobs)
            service.drain()
            results = [t.result(timeout=60.0) for t in recovered]
            # Recovery re-enqueues crash leftovers first; map results back
            # to submission order via each ticket's job identity.
            by_id = {t.job.pair_id: r for t, r in zip(recovered, results)}
            assert [by_id[j.pair_id] for j in module_jobs] == expected
            snap = service.metrics_snapshot()
            assert snap.value("repro_service_recovered_total") == len(module_jobs)
            assert snap.value("repro_durable_redelivered_total") == (
                len(module_jobs) // 2
            )

        with DurableStore(path, obs=get_observability().scoped()) as store:
            assert store.pending_count() == 0


class TestCachePersistence:
    def test_persist_load_round_trip_with_counters(
        self, tmp_path, module_jobs, expected
    ):
        path = str(tmp_path / "cache.json")
        obs = get_observability().scoped()
        cache = ResultCache(capacity=64, obs=obs)
        keys = [job_cache_key(job, _SCORING, XDROP) for job in module_jobs]
        for key, result in zip(keys, expected):
            cache.put(key, result)
        assert cache.persist(path) == len(module_jobs)

        restored = ResultCache(capacity=64, obs=obs)
        assert restored.load(path) == len(module_jobs)
        for key, result in zip(keys, expected):
            assert restored.get(key) == result

        snap = obs.registry.snapshot()
        assert snap.value("repro_cache_persist_total", direction="persist") == (
            len(module_jobs)
        )
        assert snap.value("repro_cache_persist_total", direction="load") == (
            len(module_jobs)
        )

    def test_load_respects_capacity(self, tmp_path, module_jobs, expected):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(capacity=64)
        for job, result in zip(module_jobs, expected):
            cache.put(job_cache_key(job, _SCORING, XDROP), result)
        cache.persist(path)

        small = ResultCache(capacity=3)
        small.load(path)
        assert len(small) == 3
        # LRU order persisted oldest-first, so the newest entries survive.
        newest = job_cache_key(module_jobs[-1], _SCORING, XDROP)
        assert small.get(newest) == expected[-1]

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "notcache.json"
        path.write_text('{"kind": "something-else", "entries": []}')
        with pytest.raises(ValueError, match="persisted result cache"):
            ResultCache(capacity=4).load(str(path))

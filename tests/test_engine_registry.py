"""Tests of the unified alignment-engine layer.

Covers the registry surface (register/get/list), the uniform batch result,
and — most importantly — property-style parity: random job batches pushed
through every registered exact engine must produce identical scores and end
positions to the scalar reference oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import AlignConfig
from repro.bella import BellaPipeline
from repro.core import ScoringScheme, Seed, extend_seed
from repro.core.job import AlignmentJob
from repro.core.xdrop import xdrop_extend_reference
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import (
    EngineBatchResult,
    engine_from_config,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from repro.errors import ConfigurationError
from repro.logan import LoganAligner

BUNDLED_ENGINES = {"reference", "vectorized", "batched", "seqan", "ksw2", "logan"}
EXACT_ENGINES = sorted(BUNDLED_ENGINES - {"ksw2"})


def job_batch(rng_seed: int, num_pairs: int = 8, seed_placement: str = "middle"):
    """Deterministic batch of related/unrelated jobs with mid-sequence seeds."""
    return generate_pair_set(
        PairSetSpec(
            num_pairs=num_pairs,
            min_length=120,
            max_length=260,
            pairwise_error_rate=0.15,
            unrelated_fraction=0.25,
            seed_placement=seed_placement,
            rng_seed=rng_seed,
        )
    )


def reference_results(jobs, scoring, xdrop):
    return [
        extend_seed(
            job.query,
            job.target,
            job.seed,
            scoring=scoring,
            xdrop=xdrop,
            kernel=xdrop_extend_reference,
        )
        for job in jobs
    ]


class TestRegistry:
    def test_bundled_engines_registered(self):
        assert BUNDLED_ENGINES <= set(list_engines())

    def test_get_engine_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            get_engine("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine("batched", lambda **kw: None)

    def test_register_and_unregister_custom_engine(self):
        class DummyEngine:
            name = "dummy"
            exact = False

            def __init__(self, **kwargs):
                pass

            def align_batch(self, jobs, scoring=None, xdrop=None):
                raise NotImplementedError

        try:
            register_engine("dummy", DummyEngine)
            assert "dummy" in list_engines()
            assert isinstance(get_engine("dummy"), DummyEngine)
        finally:
            unregister_engine("dummy")
        assert "dummy" not in list_engines()

    def test_register_as_decorator(self):
        try:

            @register_engine("decorated-dummy")
            class Decorated:
                name = "decorated-dummy"
                exact = False

                def align_batch(self, jobs, scoring=None, xdrop=None):
                    raise NotImplementedError

            assert "decorated-dummy" in list_engines()
        finally:
            unregister_engine("decorated-dummy")

    def test_exact_flags(self):
        for name in EXACT_ENGINES:
            assert get_engine(name).exact
        assert not get_engine("ksw2").exact


class TestEngineParity:
    """Every exact engine must reproduce the scalar reference bit-for-bit."""

    @pytest.mark.parametrize("engine_name", EXACT_ENGINES)
    @pytest.mark.parametrize("rng_seed,xdrop", [(1, 15), (2, 40)])
    def test_scores_and_extents_match_reference(self, engine_name, rng_seed, xdrop):
        scoring = ScoringScheme()
        jobs = job_batch(rng_seed)
        oracle = reference_results(jobs, scoring, xdrop)
        batch = get_engine(engine_name, scoring=scoring, xdrop=xdrop).align_batch(jobs)

        assert isinstance(batch, EngineBatchResult)
        assert batch.engine == engine_name
        assert len(batch.results) == len(jobs)
        for got, ref in zip(batch.results, oracle):
            assert got.score == ref.score
            assert got.query_begin == ref.query_begin
            assert got.query_end == ref.query_end
            assert got.target_begin == ref.target_begin
            assert got.target_end == ref.target_end
            assert got.left.best_score == ref.left.best_score
            assert got.right.best_score == ref.right.best_score

    @pytest.mark.parametrize("engine_name", EXACT_ENGINES)
    def test_per_call_override_beats_constructor_default(self, engine_name):
        scoring = ScoringScheme()
        jobs = job_batch(3, num_pairs=4)
        engine = get_engine(engine_name, scoring=scoring, xdrop=5)
        oracle = reference_results(jobs, scoring, 30)
        batch = engine.align_batch(jobs, xdrop=30)
        assert batch.scores() == [r.score for r in oracle]

    def test_batched_engine_work_accounting_matches_reference(self):
        scoring = ScoringScheme()
        jobs = job_batch(4, num_pairs=6)
        oracle = reference_results(jobs, scoring, 25)
        batch = get_engine("batched", scoring=scoring, xdrop=25).align_batch(jobs)
        assert batch.summary.alignments == len(jobs)
        assert batch.summary.cells == sum(r.cells_computed for r in oracle)

    def test_seed_at_start_batches(self):
        scoring = ScoringScheme()
        jobs = job_batch(6, seed_placement="start")
        oracle = reference_results(jobs, scoring, 20)
        for engine_name in ("batched", "vectorized"):
            batch = get_engine(engine_name, scoring=scoring, xdrop=20).align_batch(jobs)
            assert batch.scores() == [r.score for r in oracle]

    def test_batched_engine_workers_chunking_is_score_invariant(self):
        scoring = ScoringScheme()
        jobs = job_batch(9, num_pairs=7)
        serial = get_engine("batched", scoring=scoring, xdrop=25).align_batch(jobs)
        chunked = get_engine(
            "batched", scoring=scoring, xdrop=25, workers=4
        ).align_batch(jobs)
        assert chunked.scores() == serial.scores()
        assert chunked.summary.cells == serial.summary.cells

    def test_ksw2_engine_runs_and_reports_model(self):
        jobs = job_batch(7, num_pairs=4)
        batch = get_engine("ksw2", xdrop=20).align_batch(jobs)
        assert len(batch.results) == len(jobs)
        assert batch.modeled_seconds is not None and batch.modeled_seconds > 0
        assert all(r.score >= 0 for r in batch.results)

    def test_ksw2_engine_honours_custom_substitution_scores(self):
        jobs = job_batch(7, num_pairs=4)
        default = get_engine("ksw2", xdrop=20).align_batch(jobs)
        custom = get_engine(
            "ksw2", scoring=ScoringScheme(match=5, mismatch=-10, gap=-1), xdrop=20
        ).align_batch(jobs)
        assert custom.scores() != default.scores()


class TestConsumersRouteThroughEngines:
    def test_logan_rejects_the_removed_execution_option(self):
        # LOGAN always runs the one batched sweep; there is no strategy knob.
        config = AlignConfig(engine="logan", engine_options={"execution": "batched"})
        with pytest.raises(ConfigurationError, match="'execution' not accepted"):
            engine_from_config(config)
        with pytest.raises(ConfigurationError, match="'execution' not accepted"):
            LoganAligner.from_config(config)
        with pytest.raises(TypeError):
            LoganAligner(engine="batched")

    def test_bella_pipeline_accepts_engine_name(self, make_rng):
        reads = self._overlapping_reads(make_rng)
        by_name = BellaPipeline(engine="batched", k=13, xdrop=10, min_overlap=100)
        by_instance = BellaPipeline(
            aligner=get_engine("seqan", xdrop=10), k=13, min_overlap=100
        )
        res_name = by_name.run(reads)
        res_instance = by_instance.run(reads)
        assert res_name.accepted_pairs() == res_instance.accepted_pairs()
        assert [o.score for o in res_name.overlaps] == [
            o.score for o in res_instance.overlaps
        ]

    def test_bella_pipeline_rejects_aligner_and_engine(self):
        with pytest.raises(ConfigurationError, match="not both"):
            BellaPipeline(aligner=get_engine("seqan"), engine="batched")

    def test_bella_pipeline_default_engine_is_seqan(self):
        pipeline = BellaPipeline()
        assert pipeline.aligner.name == "seqan"

    @staticmethod
    def _overlapping_reads(make_rng):
        rng = make_rng(123)
        template = rng.integers(0, 4, 700).astype(np.uint8)
        return [template[0:350], template[175:525], template[350:700]]


class TestEngineBatchResultSurface:
    def test_scores_and_gcups(self):
        jobs = [
            AlignmentJob(
                query="ACGTACGTACGTACGTACGT",
                target="ACGTACGTACGTACGTACGT",
                seed=Seed(0, 0, 4),
            )
        ]
        batch = get_engine("batched", xdrop=10).align_batch(jobs)
        assert batch.scores() == [20]
        assert batch.measured_gcups() >= 0

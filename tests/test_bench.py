"""Tests of the benchmark subsystem: schema, baseline store, gate, CLI.

Fast paths (tiny workloads, temp trajectory files) run in tier-1; the
timed quick-scale measurement smoke is marked ``benchmark``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BaselineStore,
    BenchEntry,
    BenchResult,
    compare,
    run_engine_bench,
    run_service_bench,
)
from repro.cli import main_bench_perf
from repro.errors import ConfigurationError


def make_row(engine="batched", speedup=4.0, seconds=1.0, identical=True):
    return BenchResult(
        engine=engine,
        measured_seconds=seconds,
        measured_gcups=0.01,
        speedup_vs_scalar=speedup,
        scores_identical_to_reference=identical,
        cells=1000,
    )


def make_entry(speedup=4.0, seconds=1.0, quick=False, label="x"):
    return BenchEntry(
        kind="engines",
        label=label,
        batch_size=256,
        xdrop=50,
        rng_seed=2020,
        scoring={"match": 1, "mismatch": -1, "gap": -1},
        quick=quick,
        rows=[
            make_row("reference", 1.0, 5.0),
            make_row("batched", speedup, seconds),
        ],
    )


# --------------------------------------------------------------------------- #
# Schema
# --------------------------------------------------------------------------- #
class TestSchema:
    def test_entry_round_trip(self):
        entry = make_entry()
        clone = BenchEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert clone.signature() == entry.signature()
        assert clone.row("batched").speedup_vs_scalar == 4.0
        assert clone.row("missing") is None

    def test_signature_distinguishes_workloads(self):
        assert make_entry().signature() != make_entry(quick=True).signature()
        other = make_entry()
        other.xdrop = 49
        assert other.signature() != make_entry().signature()

    def test_profile_entry_round_trips_and_signs_distinctly(self):
        entry = make_entry()
        entry.profile = "pacbio"
        entry.extra = {"workload": {"min_length": 2000, "max_length": 4000}}
        clone = BenchEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert clone.profile == "pacbio"
        assert clone.signature() == entry.signature()
        # A profile series never matches the default-workload series, and
        # different workload knobs open distinct series within a profile.
        assert entry.signature() != make_entry().signature()
        other = BenchEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        other.extra = {"workload": {"min_length": 100, "max_length": 4000}}
        assert other.signature() != entry.signature()
        assert "profile=pacbio" in entry.formatted()

    def test_legacy_entry_without_profile_keeps_signature(self):
        # Pre-profile trajectory entries have no "profile" key; they must
        # keep matching runs of the default workload.
        data = make_entry().to_dict()
        del data["profile"]
        assert BenchEntry.from_dict(data).signature() == make_entry().signature()

    def test_timestamp_autofilled_and_formatted(self):
        entry = make_entry()
        assert entry.timestamp
        text = entry.formatted()
        assert "batched" in text and "4.00x" in text

    def test_malformed_entry_raises(self):
        with pytest.raises(ConfigurationError):
            BenchEntry.from_dict({"rows": [{"engine": "x"}]})


# --------------------------------------------------------------------------- #
# Baseline store
# --------------------------------------------------------------------------- #
class TestBaselineStore:
    def test_missing_file_is_empty(self, tmp_path):
        store = BaselineStore(tmp_path / "none.json")
        assert store.load() == []
        assert store.latest() is None

    def test_append_and_reload(self, tmp_path):
        store = BaselineStore(tmp_path / "t.json")
        store.append(make_entry(label="first"))
        store.append(make_entry(speedup=8.0, label="second"))
        trajectory = store.load()
        assert [e.label for e in trajectory] == ["first", "second"]
        assert store.latest().label == "second"
        data = json.loads((tmp_path / "t.json").read_text())
        assert data["schema"].startswith("repro-bench-trajectory")
        assert len(data["trajectory"]) == 2

    def test_legacy_engines_snapshot_becomes_trajectory(self, tmp_path):
        legacy = {
            "batch_size": 256,
            "xdrop": 50,
            "rng_seed": 2020,
            "scoring": {"match": 1, "mismatch": -1, "gap": -1},
            "engines": [make_row("batched", 4.3, 1.28).to_dict()],
        }
        path = tmp_path / "BENCH_engines.json"
        path.write_text(json.dumps(legacy))
        store = BaselineStore(path)
        entries = store.load()
        assert len(entries) == 1
        assert entries[0].timestamp == "legacy"
        assert entries[0].row("batched").measured_seconds == 1.28
        # The legacy snapshot matches the signature of a fresh full entry.
        assert store.latest_matching(make_entry()) is not None
        # Appending preserves it as the trajectory root.
        store.append(make_entry(speedup=9.0))
        assert [e.timestamp == "legacy" for e in store.load()] == [True, False]

    def test_latest_matching_respects_signature(self, tmp_path):
        store = BaselineStore(tmp_path / "t.json")
        store.append(make_entry(quick=True))
        assert store.latest_matching(make_entry(quick=False)) is None
        assert store.latest_matching(make_entry(quick=True)) is not None

    def test_unrecognised_layout_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"weird": 1}')
        with pytest.raises(ConfigurationError):
            BaselineStore(path).load()
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            BaselineStore(path).load()

    def test_repo_baselines_parse(self):
        """The committed trajectory files must always load."""
        engines = BaselineStore("BENCH_engines.json").load()
        assert engines and engines[0].timestamp == "legacy"
        assert any(not e.quick for e in engines[1:])
        service = BaselineStore("BENCH_service.json").load()
        assert service and service[0].timestamp == "legacy"

    def test_service_entries_with_the_deleted_batch_hint_still_gate(self, tmp_path):
        """Entries recorded with the dropped hint extras load and still gate.

        ``kernel_live_fraction`` / ``suggested_batch_size`` left the service
        extras; a fresh entry without them must still find (and compare
        against) a stored entry that carries them.
        """
        stored = [
            entry
            for entry in BaselineStore("BENCH_service.json").load()
            if "suggested_batch_size" in entry.extra
        ]
        assert stored, "the committed trajectory predates the removal"
        store = BaselineStore(tmp_path / "BENCH_service.json")
        store.append(stored[-1])
        restored = store.load()[-1]
        assert restored.extra["kernel_live_fraction"] is not None
        fresh = BenchEntry.from_dict(restored.to_dict())
        del fresh.extra["kernel_live_fraction"], fresh.extra["suggested_batch_size"]
        assert store.latest_matching(fresh) is not None
        assert compare(fresh, restored, tolerance=0.1).ok

    def test_service_entries_from_the_deleted_process_transport_still_load(
        self, tmp_path
    ):
        """Entries with a ``service_mp`` row keep loading, round-tripping and
        comparing against fresh entries, which no longer carry that row."""
        stored = [
            entry
            for entry in BaselineStore("BENCH_service.json").load()
            if entry.row("service_mp") is not None
        ]
        assert stored, "the committed trajectory predates the removal"
        legacy = stored[-1]
        store = BaselineStore(tmp_path / "BENCH_service.json")
        store.append(legacy)
        restored = store.load()[-1]
        assert restored.to_dict() == legacy.to_dict()
        fresh = BenchEntry.from_dict(restored.to_dict())
        fresh.rows = [row for row in fresh.rows if row.engine != "service_mp"]
        report = compare(fresh, restored, tolerance=0.1)
        assert report.ok
        assert "service" in {delta.engine for delta in report.deltas}


# --------------------------------------------------------------------------- #
# Regression gate
# --------------------------------------------------------------------------- #
class TestCompare:
    def test_improvement_passes(self):
        report = compare(make_entry(speedup=9.0), make_entry(speedup=4.0))
        assert report.ok
        delta = report.deltas[0]
        assert delta.engine == "batched" and delta.ratio == pytest.approx(2.25)
        assert "reference" in report.skipped  # the denominator is ungated

    def test_regression_beyond_tolerance_fails(self):
        report = compare(
            make_entry(speedup=2.0), make_entry(speedup=4.0), tolerance=0.30
        )
        assert not report.ok
        assert report.regressions[0].engine == "batched"
        assert "REGRESSION" in report.formatted()

    def test_regression_within_tolerance_passes(self):
        report = compare(
            make_entry(speedup=3.0), make_entry(speedup=4.0), tolerance=0.30
        )
        assert report.ok  # 25% drop < 30% tolerance

    def test_seconds_metric_direction(self):
        slower = compare(
            make_entry(seconds=2.0),
            make_entry(seconds=1.0),
            metric="measured_seconds",
            tolerance=0.30,
        )
        assert not slower.ok
        faster = compare(
            make_entry(seconds=0.5),
            make_entry(seconds=1.0),
            metric="measured_seconds",
        )
        assert faster.ok

    def test_no_baseline_is_passing_first_record(self):
        report = compare(make_entry(), None)
        assert report.ok and not report.deltas

    def test_unknown_metric_and_bad_tolerance(self):
        with pytest.raises(ConfigurationError):
            compare(make_entry(), make_entry(), metric="vibes")
        with pytest.raises(ConfigurationError):
            compare(make_entry(), make_entry(), tolerance=-1.0)

    def test_noise_rows_are_ungated(self):
        current = make_entry()
        current.rows.append(make_row("service_resubmit", 100.0, 0.001))
        baseline = make_entry()
        baseline.rows.append(make_row("service_resubmit", 5000.0, 0.0001))
        report = compare(current, baseline)
        assert report.ok
        assert "service_resubmit" in report.skipped

    def test_report_round_trips_to_dict(self):
        report = compare(make_entry(speedup=9.0), make_entry(speedup=4.0))
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["deltas"][0]["engine"] == "batched"


# --------------------------------------------------------------------------- #
# Runners + CLI (tiny workloads; the timed smoke is marked `benchmark`)
# --------------------------------------------------------------------------- #
class TestRunnersAndCli:
    def test_engine_runner_tiny(self):
        entry = run_engine_bench(pairs=4, engines=["reference", "batched"], seed=7)
        assert entry.batch_size == 4
        batched = entry.row("batched")
        assert batched.scores_identical_to_reference
        assert batched.kernel is not None and batched.kernel["rows"] > 0
        assert entry.row("reference").speedup_vs_scalar == 1.0

    def test_engine_runner_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            run_engine_bench(pairs=0)
        with pytest.raises(ConfigurationError):
            run_engine_bench(pairs=4, engines=["nope"])
        with pytest.raises(ConfigurationError):
            run_engine_bench(pairs=4, repeats=0)

    def test_cli_perf_records_and_gates(self, tmp_path, capsys):
        baseline = tmp_path / "engines.json"
        args = [
            "--pairs", "4", "--engines", "reference", "batched",
            "--baseline", str(baseline), "--seed", "7",
        ]
        # First run: nothing comparable stored, record the baseline.
        assert main_bench_perf(args + ["--record"]) == 0
        assert BaselineStore(baseline).latest() is not None
        # Second run: gated against the recorded entry (generous tolerance
        # absorbs timing noise on a 4-pair batch).
        code = main_bench_perf(args + ["--tolerance", "0.99"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compare vs baseline" in out

    def test_engine_runner_profile_workload(self):
        entry = run_engine_bench(
            pairs=3,
            engines=["reference", "batched"],
            seed=7,
            profile="pacbio",
            min_length=60,
            max_length=120,
            error_rate=0.05,
        )
        assert entry.profile == "pacbio"
        assert entry.extra["workload"]["min_length"] == 60
        assert entry.row("batched").scores_identical_to_reference

    def test_engine_runner_rejects_workload_knobs_without_profile(self):
        with pytest.raises(ConfigurationError, match="profile"):
            run_engine_bench(pairs=4, min_length=60)

    def test_cli_perf_missing_baseline_message_and_strict(self, tmp_path, capsys):
        baseline = tmp_path / "engines.json"
        args = [
            "--pairs", "3", "--engines", "reference", "batched",
            "--profile", "ont", "--baseline", str(baseline), "--seed", "7",
        ]
        # No baseline for this series yet: explain, exit 0 by default.
        assert main_bench_perf(args) == 0
        out = capsys.readouterr().out
        assert "no baseline recorded for series 'engines/ont'" in out
        assert "--record" in out
        # --strict turns the missing baseline into a gate failure.
        assert main_bench_perf(args + ["--strict"]) == 1
        # Record, then re-run strict: series exists, gate passes.
        assert main_bench_perf(args + ["--record"]) == 0
        capsys.readouterr()
        assert main_bench_perf(args + ["--strict", "--tolerance", "0.99"]) == 0
        assert "compare vs baseline" in capsys.readouterr().out

    def test_cli_perf_missing_engine_row_reported(self, tmp_path, capsys):
        baseline = tmp_path / "engines.json"
        common = ["--pairs", "3", "--baseline", str(baseline), "--seed", "7"]
        assert main_bench_perf(
            common + ["--engines", "reference", "vectorized", "--record"]
        ) == 0
        capsys.readouterr()
        # Same series, new engine: the entry matches but the batched row
        # has no baseline — say so per engine; only --strict gates on it.
        args = common + [
            "--engines", "reference", "vectorized", "batched",
            "--tolerance", "0.99",
        ]
        assert main_bench_perf(args) == 0
        out = capsys.readouterr().out
        assert "engine 'batched'" in out and "no baseline recorded" in out
        assert main_bench_perf(args + ["--strict"]) == 1

    def test_cli_perf_rejects_the_removed_process_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_bench_perf(["--service", "--process-workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_perf_artifact_and_json(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        code = main_bench_perf(
            [
                "--pairs", "4", "--engines", "reference", "batched",
                "--baseline", str(tmp_path / "b.json"), "--seed", "7",
                "--no-compare", "--json", "--artifact", str(artifact),
            ]
        )
        assert code == 0
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["engines"]["batch_size"] == 4

    def test_main_bench_dispatches_perf(self, tmp_path):
        from repro.cli import main_bench

        assert (
            main_bench(
                [
                    "perf", "--pairs", "4", "--engines", "reference", "batched",
                    "--baseline", str(tmp_path / "b.json"), "--no-compare",
                ]
            )
            == 0
        )


@pytest.mark.benchmark
class TestBenchmarkSmoke:
    def test_quick_engine_bench_meets_floor(self):
        """Quick-scale measurement: the compacted kernel must beat 3x."""
        entry = run_engine_bench(quick=True)
        assert entry.quick and entry.batch_size == 64
        batched = entry.row("batched")
        assert batched.scores_identical_to_reference
        assert batched.speedup_vs_scalar >= 3.0

    def test_quick_service_bench_parity_and_cache(self):
        entry = run_service_bench(quick=True)
        rows = {row.engine: row for row in entry.rows}
        assert rows["service"].scores_identical_to_reference
        assert rows["service_resubmit"].scores_identical_to_reference
        assert entry.extra["cache_hit_rate"] > 0
        assert "kernel_live_fraction" not in entry.extra
        assert "suggested_batch_size" not in entry.extra

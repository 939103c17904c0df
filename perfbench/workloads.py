"""The benchmark workloads and the outside-in timing around them.

Every workload runs the shipped default configuration, ``AlignConfig()``:
the ``batched`` engine, X = 100, ``bin_width = 500`` and ``ServiceConfig()``
(``max_batch_size = 64``, one worker, thread transport).  Layers are timed
from outside by wrapping the public calls into them; no program file is
changed.  A run returns a :class:`Outcome`: the end-to-end metrics of the
untraced passes, the per-layer metrics of the traced passes, and the
correctness tally.

End-to-end timings are host-speed normalised (see :class:`HostSpeed`):
the benchmark runs on shared hosts whose speed drifts by up to 2x in
phases of seconds to minutes, longer than a run.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from oracle import COLUMNS, result_table

CELLS = COLUMNS.index("cells")

#: Definition of each workload.  Its digest is part of every record.
WORKLOADS = {
    "bella_ecoli": {
        "preset": "ecoli_like",
        "scale": 0.03,
        "read_sets": 10,
        "layout_seed": 0,
        "slo_ms": 10_000.0,
    },
    "service_bulk": {
        "profiles": ["pacbio", "ont", "length_skew", "unrelated"],
        "pairs": 192,
        "min_length": 1000,
        "max_length": 3000,
        "slo_ms": 20_000.0,
    },
}


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)

    def check(self, actual: np.ndarray, expected: np.ndarray) -> None:
        """Count every row of *actual* that differs from the oracle."""
        self.attempted += len(expected)
        if actual.shape != expected.shape:
            self.failed += len(expected)
        else:
            self.failed += int(np.sum(np.any(actual != expected, axis=1)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# --------------------------------------------------------------------------- #
# Outside-in wrappers.
@contextmanager
def timed_functions(module, totals: dict):
    """Wrap ``module.<name>`` for each name in *totals*, adding its seconds there."""
    originals = {name: getattr(module, name) for name in totals}

    def timed(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - start

        return call

    for name, fn in originals.items():
        setattr(module, name, timed(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class CallRecorder:
    """Wraps ``obj.<method>`` on the instance; records arguments, result, time."""

    def __init__(self, obj, method: str) -> None:
        self.calls: list = []
        inner = getattr(obj, method)

        def call(*args, **kwargs):
            start = time.perf_counter()
            out = inner(*args, **kwargs)
            self.calls.append((args, out, time.perf_counter() - start))
            return out

        setattr(obj, method, call)

    @property
    def seconds(self) -> float:
        return sum(seconds for _, _, seconds in self.calls)


class DispatchStamps:
    """Stamps, from outside the service, when each ticket's result arrived.

    Tickets expose no completion callback, so this wraps the service's
    per-batch dispatch hook; the stamp is taken right after the last ticket
    of the batch was resolved.
    """

    def __init__(self, service) -> None:
        self.done: dict = {}
        inner = service._dispatch

        def dispatch(batch):
            try:
                inner(batch)
            finally:
                now = time.perf_counter()
                for ticket in batch.tickets:
                    self.done[ticket] = now

        service._dispatch = dispatch


def kernel_totals(results) -> dict:
    """Merged ``BatchKernelStats`` of engine/pool results, as metrics."""
    from repro.core.xdrop_batch import BatchKernelStats

    merged = BatchKernelStats()
    for result in results:
        stats = result.extras.get("kernel_stats")
        if stats is not None:
            merged.merge(stats)
    return {
        "kernel.cells": merged.cells,
        "kernel.steps": merged.steps,
        "kernel.row_steps": merged.row_steps,
        "kernel.live_fraction": merged.live_fraction,
    }


#: Seconds :func:`speed_probe` takes at the reference host speed.  End-to-end
#: timings are scaled to this speed: its time on a 2-vCPU Intel Xeon, quiet phase.
PROBE_REFERENCE_S = 0.008

_PROBE_A = np.random.default_rng(0).integers(-5, 5, size=(64, 256)).astype(np.int32)


def speed_probe() -> float:
    """Seconds one fixed piece of work takes on the host right now.

    The work is the kind the X-drop kernels do: a Python loop of small
    numpy operations on a band of lanes (max, reduce, compare, select).
    It is the benchmark's own code, so no change to the program moves it.
    """
    a, b = _PROBE_A.copy(), _PROBE_A.copy()
    start = time.perf_counter()
    for _ in range(150):
        c = np.maximum(a[:, 1:], b[:, :-1]) + 1
        live = c >= c.max(axis=1)[:, None] - 50
        b[:, 1:] = np.where(live, c, -1000)
        a, b = b, a
    return time.perf_counter() - start


class HostSpeed:
    """Scales timings on a shared host to the reference host speed.

    The host's speed drifts by up to 2x in phases of seconds to minutes,
    and a run often sits inside one phase, so no median over a run's
    passes removes it.  Each timed interval is
    therefore bracketed by :func:`speed_probe`, and its time is scaled by
    ``PROBE_REFERENCE_S`` over the mean of the two probes.  On a 2-vCPU
    Intel Xeon this cut the drift of 20-second window medians of an
    ``align_batch`` call from 41% to 12%.  The raw timings and the probes
    are kept in the record.
    """

    def __init__(self) -> None:
        self.probes: list = []

    def probe(self) -> float:
        """The host's current probe time: the fastest of three probes."""
        self.probes.append(min(speed_probe() for _ in range(3)))
        return self.probes[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor taking a time bracketed by these probes to reference speed."""
        return PROBE_REFERENCE_S / ((before + after) / 2.0)


def more_passes(seconds: float, walls: dict) -> int:
    """How many more passes fit in *seconds*, judged by the first ones.

    A pass is one untraced pass, plus its traced twin when tracing; at
    least one pass always runs, so long passes are not cut short.
    """
    cycle = walls[False][0] + (walls[True][0] if walls[True] else 0.0)
    return max(1, round(seconds / cycle)) - 1


def overlap_quality(outcome: Outcome, calls, truth) -> None:
    """Recall and precision of overlap calls against ground truth.

    *calls* and *truth* are sets of pair identifiers: the pairs the program
    reported as overlaps and the pairs that truly overlap.
    """
    hits = len(calls & truth)
    outcome.end_to_end["recall"] = hits / len(truth) if truth else 1.0
    outcome.end_to_end["precision"] = hits / len(calls) if calls else 1.0


def service_calls(jobs, results) -> set:
    """Indices of the served pairs called overlaps.

    A served pair is called an overlap when its score passes BELLA's
    adaptive threshold for an overlap as long as its shorter read; a failed
    request is never called.
    """
    from repro.bella.threshold import AdaptiveThreshold

    threshold = AdaptiveThreshold(min_overlap=0)
    return {
        index
        for index, (job, result) in enumerate(zip(jobs, results))
        if result is not None
        and threshold.passes(result.score, min(job.query_length, job.target_length))
    }


def latency_metrics(outcome: Outcome, windows: list, slo_ms: float) -> None:
    """Latency percentiles and the share of requests that met the limit.

    *windows* holds ``(latency_ms, ok)`` arrays, one per pass.  Each
    percentile is taken per pass and the median over passes is reported,
    like ``wall_s``.  A request that failed misses the limit.
    """
    for q in (50, 95):
        outcome.end_to_end[f"latency_p{q}_ms"] = statistics.median(
            percentile(latency, q) for latency, _ in windows
        )
    met = np.concatenate([ok & (latency <= slo_ms) for latency, ok in windows])
    outcome.end_to_end["slo_met_frac"] = float(met.mean())


def collect(tickets) -> list:
    """Each drained ticket's result, or ``None`` when it failed."""
    results = []
    for ticket in tickets:
        try:
            results.append(ticket.result(timeout=0))
        except Exception:  # a failed request is counted, never fatal
            results.append(None)
    return results


def check_results(outcome: Outcome, results, table: np.ndarray) -> np.ndarray:
    """Check delivered results against the oracle; missing ones fail."""
    ok = np.array([r is not None for r in results], dtype=bool)
    outcome.attempted += int((~ok).sum())
    outcome.failed += int((~ok).sum())
    outcome.check(result_table([r for r in results if r is not None]), table[ok])
    return ok


# --------------------------------------------------------------------------- #
# bella_ecoli
def read_set(
    preset_name: str,
    scale: float,
    layout_rng: np.random.Generator,
    error_rng: np.random.Generator,
) -> list:
    """One read set of a scaled dataset preset: a read layout, then errors.

    *layout_rng* draws the genome, as :func:`repro.data.datasets.load_dataset`
    draws it, and where each read lies on it: uniform starts, and lengths
    evenly spaced over the preset's length range and shuffled, so every set
    holds the same length mix.  *error_rng* draws each read's sequencing
    errors under the preset's error model.
    """
    from repro.data.datasets import load_dataset
    from repro.data.reads import ErrorModel, SimulatedRead, apply_errors

    dataset = load_dataset(preset_name, rng=layout_rng, scale=scale)
    preset, genome = dataset.preset, dataset.genome.sequence
    spread = preset.read_length_spread
    lengths = np.linspace(
        preset.mean_read_length - spread, preset.mean_read_length + spread, preset.num_reads
    ).round().astype(int)
    error_model = ErrorModel.with_total(preset.error_rate)
    reads = []
    for index, length in enumerate(layout_rng.permutation(np.minimum(lengths, len(genome)))):
        start = int(layout_rng.integers(0, len(genome) - length + 1))
        reads.append(
            SimulatedRead(
                name=f"{preset.name}_{index}",
                sequence=apply_errors(genome[start : start + length], error_model, error_rng),
                genome_start=start,
                genome_end=start + int(length),
            )
        )
    return reads


def run_bella(seed: int, seconds: float, trace: bool, oracle) -> Outcome:
    """BELLA all-vs-all overlap over several ecoli_like read sets.

    The read sets are a fixed library, resequenced: genomes and read
    layouts come from ``layout_seed``, and the seed draws every read's
    sequencing errors.  At the preset's smallest scale the genome and the
    layout each move a set's alignment time by up to 2x, with cells and
    kernel steps within 3%.  With the layout drawn per seed, the p95
    latency over ten sets spread by 0.20 (quartile distance over median)
    across seeds; with it fixed, by 0.09.

    One pass runs the default pipeline once per read set.  A read set's
    latency is the median of its runs over the untraced passes, each run
    scaled to reference host speed; each read set is one latency sample,
    and ``wall_s`` is their sum.  Every
    alignment is checked against the oracle, and each run's accepted pairs
    against the pairs the oracle's scores accept.
    """
    import repro.bella.pipeline as pipeline_module
    from repro.api import AlignConfig
    from repro.bella.pipeline import BellaPipeline
    from repro.data.reads import true_overlap

    spec = WORKLOADS["bella_ecoli"]
    read_sets = [
        read_set(
            spec["preset"],
            spec["scale"],
            np.random.default_rng([spec["layout_seed"], index]),
            np.random.default_rng([seed, index]),
        )
        for index in range(spec["read_sets"])
    ]
    pipeline = BellaPipeline(config=AlignConfig())
    engine = CallRecorder(pipeline.aligner, "align_batch")
    threshold = pipeline.threshold
    truth = {
        (index, i, j)
        for index, reads in enumerate(read_sets)
        for i in range(len(reads))
        for j in range(i + 1, len(reads))
        if true_overlap(reads[i], reads[j]) >= threshold.min_overlap
    }
    outcome = Outcome()
    layer = outcome.per_layer
    tables: list = []
    walls: dict = {False: [], True: []}
    latency_ms: list = [[] for _ in read_sets]  # scaled to reference speed
    raw_ms: list = [[] for _ in read_sets]
    host = HostSpeed()
    stages = dict.fromkeys(
        ("build_kmer_index", "find_candidate_overlaps", "choose_seed"), 0.0
    )

    def one_pass(traced: bool) -> list:
        engine.calls.clear()
        runs = []
        start = time.perf_counter()
        before = None if traced else host.probe()
        for index, reads in enumerate(read_sets):
            begin = time.perf_counter()
            if traced:
                with timed_functions(pipeline_module, stages):
                    runs.append(pipeline.run(reads))
            else:
                runs.append(pipeline.run(reads))
                raw_ms[index].append(1000.0 * (time.perf_counter() - begin))
                after = host.probe()
                latency_ms[index].append(raw_ms[index][-1] * host.scale(before, after))
                before = after
        if traced:
            walls[True].append(time.perf_counter() - start)
        else:  # the probes between runs are not part of the pass
            walls[False].append(sum(samples[-1] for samples in raw_ms) / 1000.0)
        if len(engine.calls) != len(runs):  # one alignment batch per run
            outcome.failed += 1
        for index, (run, (args, batch, _)) in enumerate(zip(runs, engine.calls)):
            if len(tables) <= index:
                tables.append(
                    oracle.reference_table(args[0], pipeline.scoring, pipeline.xdrop)
                )
            expected = tables[index]
            outcome.check(result_table(batch.results), expected)
            oracle_accepted = {
                (o.read_i, o.read_j)
                for o, row in zip(run.overlaps, expected)
                if threshold.passes(int(row[0]), o.overlap_estimate)
            }
            if len(run.overlaps) != len(expected) or (
                oracle_accepted != run.accepted_pairs()
            ):
                outcome.failed += 1
        return runs

    runs = one_pass(False)
    jobs = [job for args, _, _ in engine.calls for job in args[0]]
    outcome.failed += oracle.cross_check(
        jobs, np.concatenate(tables), pipeline.scoring, pipeline.xdrop,
        np.random.default_rng(seed), max_cells=1_000_000,
    )

    def traced_pass() -> None:
        stages.update(dict.fromkeys(stages, 0.0))
        one_pass(True)
        align_s = engine.seconds
        layer["bella.kmer_s"] = stages["build_kmer_index"]
        layer["bella.overlap_s"] = stages["find_candidate_overlaps"]
        layer["bella.seed_s"] = stages["choose_seed"]
        layer["bella.align_s"] = align_s
        layer["bella.other_s"] = walls[True][-1] - align_s - sum(stages.values())
        layer.update(kernel_totals(batch for _, batch, _ in engine.calls))
        layer["kernel.busy_gcups"] = layer["kernel.cells"] / align_s / 1e9

    if trace:
        traced_pass()
    for _ in range(more_passes(seconds, walls)):
        one_pass(False)
        if trace:
            traced_pass()

    cells = int(sum(table[:, CELLS].sum() for table in tables))
    alignments = sum(run.num_alignments for run in runs)
    accepted = sum(len(run.accepted) for run in runs)
    layer["bella.candidates"] = sum(len(run.candidates.candidates) for run in runs)
    layer["bella.alignments"] = alignments
    layer["bella.accepted"] = accepted
    layer["bella.accept_ratio"] = accepted / alignments if alignments else 0.0
    if trace:
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        layer["host.probe_ms"] = 1000.0 * statistics.median(host.probes)
    latency = np.array([statistics.median(samples) for samples in latency_ms])
    wall = latency.sum() / 1000.0
    outcome.end_to_end["wall_s"] = wall
    outcome.end_to_end["gcups"] = cells / wall / 1e9
    latency_metrics(outcome, [(latency, np.ones(len(latency), bool))], spec["slo_ms"])
    calls = {
        (index, min(pair), max(pair))
        for index, run in enumerate(runs)
        for pair in run.accepted_pairs()
    }
    overlap_quality(outcome, calls, truth)
    outcome.samples = {
        "pass_walls_s": walls[False],
        "traced_pass_walls_s": walls[True],
        "latency_ms": latency_ms,
        "raw_latency_ms": raw_ms,
        "host_probes_s": host.probes,
        "reads": [len(reads) for reads in read_sets],
        "alignments": alignments,
        "cells": cells,
    }
    return outcome


# --------------------------------------------------------------------------- #
# service_bulk
def bank_pairs(seed: int, spec: dict, count: int):
    """*count* pairs from the workload bank, split evenly over the profiles,
    with the ground truth of whether each pair truly overlaps.

    Template lengths are stratified: each profile gets lengths evenly spaced
    over ``[min_length, max_length]``, so the amount of work barely changes
    from seed to seed while the sequences and errors do.  Pairs come in a
    fixed order, profiles interleaved and lengths descending.
    """
    from repro.workloads import WorkloadSpec, generate_workload

    profiles = spec["profiles"]
    shares = [count // len(profiles) + (r < count % len(profiles)) for r in range(len(profiles))]
    pairs = []
    for profile, share in zip(profiles, shares):
        lengths = np.linspace(spec["min_length"], spec["max_length"], share).round()
        for index, length in enumerate(lengths.astype(int)):
            job_spec = WorkloadSpec(
                count=1, seed=seed * 1_000_003 + index, min_length=length, max_length=length
            )
            job = generate_workload(profile, job_spec).jobs[0]
            pairs.append((length, job, profile != "unrelated"))
    pairs.sort(key=lambda pair: -pair[0])  # stable: profiles stay interleaved
    return [job for _, job, _ in pairs], [rel for _, _, rel in pairs]


def run_service_bulk(seed: int, seconds: float, trace: bool, oracle) -> Outcome:
    """A cold-cache mixed pair set through ``submit_many`` + ``drain``.

    Each pass builds a fresh default service outside the timed region, so
    every pass starts cold and no pair repeats.  A request's latency runs
    from the start of the pass to the resolution of its ticket; a pass's
    times are scaled to reference host speed by probes around it.  Pairs are
    submitted in :func:`bank_pairs`' fixed order: the batcher drains its
    bins in the order they first received a pair, so a random order would
    make the latency percentiles depend on which bin happened to open first.
    """
    from repro.api import AlignConfig
    from repro.engine.base import engine_from_config
    from repro.service import AlignmentService

    spec = WORKLOADS["service_bulk"]
    config = AlignConfig()
    jobs, related = bank_pairs(seed, spec, spec["pairs"])
    table = oracle.reference_table(jobs, config.scoring, config.xdrop)
    outcome = Outcome()
    layer = outcome.per_layer
    outcome.failed += oracle.cross_check(
        jobs, table, config.scoring, config.xdrop, np.random.default_rng(seed),
        max_cells=1_000_000,
    )
    walls: dict = {False: [], True: []}
    scaled_walls: list = []  # untraced, scaled to reference host speed
    windows: list = []
    host = HostSpeed()

    def one_pass(traced: bool) -> list:
        service = AlignmentService(config=config)
        stamps = DispatchStamps(service)
        if traced:
            submit = CallRecorder(service, "submit")
            pool = CallRecorder(service.pool, "run_batch")
        else:
            before = host.probe()
        try:
            start = time.perf_counter()
            tickets = service.submit_many(jobs)
            service.drain()
            results = collect(tickets)
            wall = time.perf_counter() - start
            stats = service.stats()
        finally:
            service.shutdown()
        walls[traced].append(wall)
        ok = check_results(outcome, results, table)
        if not traced:
            scale = host.scale(before, host.probe())
            scaled_walls.append(wall * scale)
            finished = [stamps.done.get(ticket, start + wall) for ticket in tickets]
            windows.append((1000.0 * scale * (np.array(finished) - start), ok))
        else:
            layer["service.submit_s"] = submit.seconds
            layer["service.busy_s"] = stats.busy_seconds
            layer["service.other_s"] = wall - submit.seconds - stats.busy_seconds
            layer["service.batches"] = stats.batches_formed
            layer["service.mean_batch_size"] = stats.mean_batch_size
            layer["batcher.flush_size"] = stats.flush_reasons.get("size", 0)
            layer["batcher.flush_drain"] = stats.flush_reasons.get("drain", 0)
            layer["service.kernel_ms_p50"] = percentile(
                [1000.0 * seconds for _, _, seconds in pool.calls], 50
            )
            layer.update(kernel_totals(run for _, run, _ in pool.calls))
            layer["kernel.busy_gcups"] = layer["kernel.cells"] / pool.seconds / 1e9
        return results

    results = one_pass(False)
    if trace:
        one_pass(True)
    for _ in range(more_passes(seconds, walls)):
        one_pass(False)
        if trace:
            one_pass(True)

    if trace:
        direct_engine = engine_from_config(config)
        start = time.perf_counter()
        direct = direct_engine.align_batch(jobs)
        layer["engine.direct_s"] = time.perf_counter() - start
        outcome.check(result_table(direct.results), table)
        layer["service.fragmentation"] = (
            layer["kernel.steps"] / direct.extras["kernel_stats"].steps
        )
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        layer["host.probe_ms"] = 1000.0 * statistics.median(host.probes)
    wall = statistics.median(scaled_walls)
    cells = int(table[:, CELLS].sum())
    outcome.end_to_end["wall_s"] = wall
    outcome.end_to_end["gcups"] = cells / wall / 1e9
    latency_metrics(outcome, windows, spec["slo_ms"])
    truth = {index for index, rel in enumerate(related) if rel}
    overlap_quality(outcome, service_calls(jobs, results), truth)
    outcome.samples = {
        "pass_walls_s": walls[False],
        "traced_pass_walls_s": walls[True],
        "scaled_pass_walls_s": scaled_walls,
        "host_probes_s": host.probes,
        "latency_samples": sum(len(latency) for latency, _ in windows),
        "pairs": len(jobs),
        "cells": cells,
    }
    return outcome


RUNNERS = {
    "bella_ecoli": run_bella,
    "service_bulk": run_service_bulk,
}

"""The C X-drop kernel: bit-identity, the build cache and the numpy fallback.

``repro.core.xdrop_native`` compiles ``xdrop_native.c`` on the first kernel
call and the ``batched`` and ``logan`` engines run it whenever it loaded.
These tests pin its results to the scalar reference field for field (band
traces included), on random pairs and scoring schemes and on every
workload-bank profile over the network and process transports.  They also
pin the loader: racing builds, a failed build falling back to numpy with
its reason recorded, no build at import or engine construction, and the
kernel telemetry the benchmark divides by.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.api import AlignConfig, ServiceConfig
from repro.cli import main_align
from repro.core import ScoringScheme, xdrop_native
from repro.core.job import AlignmentJob
from repro.core.seed_extend import Seed
from repro.core.xdrop import xdrop_extend_reference
from repro.core.xdrop_native import NativeKernel, native_kernel
from repro.data import PairSetSpec, generate_pair_set
from repro.engine import get_engine
from repro.logan.kernel import kernel_name
from repro.testing import ConformanceRunner
from repro.workloads import WorkloadSpec, generate_workload, list_profiles

requires_cc = pytest.mark.skipif(
    shutil.which(xdrop_native.COMPILE[0]) is None, reason="no C compiler on PATH"
)
SRC = str(Path(repro.__file__).resolve().parents[1])


def _fields(ext) -> tuple:
    return (
        ext.best_score,
        ext.query_end,
        ext.target_end,
        ext.anti_diagonals,
        ext.cells_computed,
        ext.terminated_early,
        None if ext.band_widths is None else ext.band_widths.tolist(),
    )


@pytest.fixture
def jobs():
    """Middle-seeded pairs: both sides of every job reach the kernel."""
    return generate_pair_set(
        PairSetSpec(
            num_pairs=6,
            min_length=120,
            max_length=300,
            pairwise_error_rate=0.12,
            seed_placement="middle",
            rng_seed=5,
        )
    )


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Loader state of a new process, building into an empty cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(xdrop_native, "_KERNEL", None)
    return tmp_path / "repro"


@pytest.fixture
def numpy_fallback(monkeypatch):
    """The state of a host whose C kernel could not be built."""
    monkeypatch.setattr(
        xdrop_native, "_KERNEL", NativeKernel(None, "forced unavailable in a test")
    )


# --------------------------------------------------------------------------- #
# Bit-identity with the scalar reference
# --------------------------------------------------------------------------- #
_SEQ = st.lists(st.integers(0, 4), min_size=1, max_size=40).map(
    lambda codes: np.asarray(codes, dtype=np.uint8)
)


@st.composite
def _pair(draw):
    """A pair whose target is random or a lightly edited copy of the query."""
    query = draw(_SEQ)
    if draw(st.booleans()):
        return query, draw(_SEQ)
    target = query.copy()
    for pos in draw(st.lists(st.integers(0, len(query) - 1), max_size=4)):
        target[pos] = draw(st.integers(0, 4))
    return query, target[: draw(st.integers(1, len(target)))]


@requires_cc
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    pairs=st.lists(_pair(), min_size=1, max_size=8),
    match=st.integers(1, 5),
    mismatch=st.integers(-6, 0),
    gap=st.integers(-6, -1),
    xdrop=st.one_of(st.just(0), st.integers(0, 40)),
    threads=st.integers(1, 3),
)
def test_native_matches_reference_on_random_pairs(
    pairs, match, mismatch, gap, xdrop, threads
):
    """Random lengths from one base, ``N`` wildcards (code 4), X = 0 included."""
    scoring = ScoringScheme(match=match, mismatch=mismatch, gap=gap)
    got = native_kernel().extend(pairs, scoring, xdrop, trace=True, threads=threads)
    expected = [
        xdrop_extend_reference(q, t, scoring, xdrop, trace=True) for q, t in pairs
    ]
    assert [_fields(ext) for ext in got] == [_fields(ext) for ext in expected]


@requires_cc
@settings(max_examples=40, deadline=None)
@given(
    query=st.lists(st.integers(0, 4), min_size=2, max_size=30),
    edits=st.lists(st.integers(0, 29), max_size=3),
    flush=st.sampled_from(["start", "end", "both"]),
    trace=st.booleans(),
)
def test_seed_flush_sides_join_like_the_reference(query, edits, flush, trace):
    """A seed flush with a sequence end leaves an empty side, never sent to C."""
    q = np.asarray(query, dtype=np.uint8)
    length = len(q) if flush == "both" else 1
    pos = len(q) - length if flush == "end" else 0
    t = q.copy()
    for edit in edits:
        if not pos <= edit % len(t) < pos + length:  # the seed stays exact
            t[edit % len(t)] = (int(t[edit % len(t)]) + 1) % 5
    job = AlignmentJob(query=q, target=t, seed=Seed(pos, pos, length))
    batched = get_engine("batched", xdrop=7, trace=trace).align_batch([job])
    reference = get_engine("reference", xdrop=7, trace=trace).align_batch([job])
    for got, want in zip(batched.results, reference.results, strict=True):
        assert got.score == want.score
        assert _fields(got.left) == _fields(want.left)
        assert _fields(got.right) == _fields(want.right)


@requires_cc
def test_every_profile_over_network_and_process_transport():
    """All 9 workload-bank profiles: engines, service and socket + process pool.

    The process transport's packed result tables cannot carry band traces,
    so traces are compared by a second, in-process run with tracing on.
    """
    process = ServiceConfig(
        num_workers=2, transport="process", worker_policy="batch", max_batch_size=8
    )
    profiles = list_profiles()
    assert len(profiles) == 9
    assert native_kernel().available
    engines = ["reference", "batched", "logan"]
    with ConformanceRunner(
        AlignConfig(engine="batched", xdrop=20, service=process),
        engines=engines,
        include_service=True,
        include_network=True,
    ) as networked:
        traced = ConformanceRunner(
            AlignConfig(engine="batched", xdrop=20, trace=True), engines=engines
        )
        for name in profiles:
            workload = generate_workload(name, WorkloadSpec(count=4, seed=29, xdrop=20))
            for runner in (networked, traced):
                report = runner.run_workload(workload)
                assert report.ok, f"{name}: {report.summary()}"
                assert report.service_checked, name
                assert report.network_checked is (runner is networked), name


@pytest.mark.parametrize("profile", list_profiles())
def test_numpy_fallback_stays_bit_identical(numpy_fallback, profile):
    assert kernel_name() == "numpy"
    runner = ConformanceRunner(
        AlignConfig(engine="batched", xdrop=15, trace=True),
        engines=["reference", "batched", "logan"],
        include_service=True,
    )
    spec = WorkloadSpec(count=5, seed=13, min_length=50, max_length=140, xdrop=15)
    report = runner.run_workload(generate_workload(profile, spec))
    assert report.ok, report.summary()


@requires_cc
@pytest.mark.parametrize("profile", list_profiles())
def test_both_kernels_count_the_same_work(monkeypatch, profile):
    """Per profile, the C and numpy kernels agree on results, rows and cells.

    Their ``steps`` differ by design: the numpy sweep advances one global
    anti-diagonal counter over the packed rows, the C kernel pads nothing.
    """
    workload = generate_workload(profile, WorkloadSpec(count=5, seed=31, xdrop=20))
    engine = get_engine("batched", xdrop=20, trace=True)
    native = engine.align_batch(workload.jobs)
    monkeypatch.setattr(
        xdrop_native, "_KERNEL", NativeKernel(None, "forced unavailable in a test")
    )
    fallback = engine.align_batch(workload.jobs)
    for got, want in zip(fallback.results, native.results, strict=True):
        assert got.score == want.score
        assert _fields(got.left) == _fields(want.left)
        assert _fields(got.right) == _fields(want.right)
    ours, theirs = native.extras["kernel_stats"], fallback.extras["kernel_stats"]
    assert (ours.rows, ours.cells) == (theirs.rows, theirs.cells)
    assert (ours.dtype, theirs.dtype) == ("int64", "int16")


# --------------------------------------------------------------------------- #
# Threads and telemetry
# --------------------------------------------------------------------------- #
@requires_cc
def test_threads_split_the_batch_without_changing_results(jobs):
    pairs = [(job.query, job.target) for job in jobs]
    one = native_kernel().extend(pairs, xdrop=20, trace=True)
    for threads in (2, 3, 64):
        split = native_kernel().extend(pairs, xdrop=20, trace=True, threads=threads)
        assert [_fields(e) for e in split] == [_fields(e) for e in one]
    single = get_engine("batched", xdrop=20).align_batch(jobs)
    double = get_engine("batched", xdrop=20, workers=2).align_batch(jobs)
    assert double.scores() == single.scores()
    assert double.extras["kernel_stats"] == single.extras["kernel_stats"]


@requires_cc
def test_direct_batched_call_reports_unpadded_steps(jobs):
    """``service.fragmentation`` divides by a direct call's ``steps``."""
    batch = get_engine("batched", xdrop=20).align_batch(jobs)
    stats = batch.extras["kernel_stats"]
    sides = [side for r in batch.results for side in (r.left, r.right)]
    assert stats.rows == len(sides) == 2 * len(jobs)
    assert stats.steps > 0
    assert stats.steps == stats.row_steps == sum(s.anti_diagonals for s in sides)
    assert stats.cells == sum(s.cells_computed for s in sides)
    assert stats.dtype == "int64"
    assert stats.live_fraction == 1.0


@pytest.mark.parametrize("forced", [False, True], ids=["native", "numpy"])
def test_kernel_metrics_name_the_kernel_that_ran(request, jobs, forced):
    if forced:
        request.getfixturevalue("numpy_fallback")
    elif not native_kernel().available:
        pytest.skip("the C kernel is unavailable on this host")
    obs.reset()
    try:
        get_engine("batched", xdrop=20).align_batch(jobs)
        snap = obs.get_observability().registry.snapshot()
    finally:
        obs.reset()
    ran, other = ("numpy", "native") if forced else ("native", "numpy")
    assert snap.value("repro_kernel_pairs_total", kernel=ran) == 2 * len(jobs)
    assert snap.value("repro_kernel_pairs_total", default=0.0, kernel=other) == 0.0
    assert snap.value("repro_kernel_pairs_total", default=0.0, kernel="batched") == 0.0


# --------------------------------------------------------------------------- #
# The loader: build cache, races, failures
# --------------------------------------------------------------------------- #
_CHILD = """
import json
from repro.core.xdrop_native import native_kernel
kernel = native_kernel()
ext = kernel.extend([("ACGTACGTTT", "ACGTACGATT")], xdrop=5)[0]
print(json.dumps([kernel.available, kernel.reason, ext.best_score, ext.cells_computed]))
"""


def _child_env(cache: Path) -> dict:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@requires_cc
def test_racing_processes_each_load_a_complete_library(tmp_path):
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD],
            env=_child_env(tmp_path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    reference = xdrop_extend_reference("ACGTACGTTT", "ACGTACGATT", xdrop=5)
    expected = [True, None, reference.best_score, reference.cells_computed]
    assert [json.loads(out) for out in outputs] == [expected, expected]
    built = sorted(path.name for path in (tmp_path / "repro").iterdir())
    assert [name for name in built if not name.endswith(".lock")] == [
        next(name for name in built if name.endswith(".so"))
    ]


@requires_cc
def test_racing_threads_share_one_build(fresh_loader, jobs):
    """More threads than cores race the first call; one library, one kernel."""
    pairs = [(job.query, job.target) for job in jobs]

    def first_call(_):
        kernel = native_kernel()
        return kernel, [_fields(e) for e in kernel.extend(pairs, xdrop=20, threads=2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(first_call, i) for i in range(8)]
            outcomes = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    kernels = {id(kernel) for kernel, _ in outcomes}
    assert len(kernels) == 1 and outcomes[0][0].available
    assert all(fields == outcomes[0][1] for _, fields in outcomes)
    assert len(list(fresh_loader.glob("*.so"))) == 1
    assert not list(fresh_loader.glob("*.tmp"))


@requires_cc
def test_nothing_is_built_at_import_or_engine_construction(tmp_path):
    construct = (
        "import repro.api\n"
        "from repro.api import AlignConfig\n"
        "from repro.bella.pipeline import BellaPipeline\n"
        "from repro.service import AlignmentService\n"
        "BellaPipeline(config=AlignConfig()).aligner\n"
        "AlignmentService(config=AlignConfig()).shutdown()\n"
    )
    subprocess.run(
        [sys.executable, "-c", construct], env=_child_env(tmp_path), check=True
    )
    assert not (tmp_path / "repro").exists()
    subprocess.run(
        [sys.executable, "-c", _CHILD], env=_child_env(tmp_path), check=True,
        stdout=subprocess.DEVNULL,
    )
    assert list((tmp_path / "repro").glob("xdrop_native-*.so"))


@requires_cc
def test_library_is_reused_from_the_cache(fresh_loader, monkeypatch):
    assert native_kernel().available
    (library,) = fresh_loader.glob("*.so")
    built = library.stat()
    monkeypatch.setattr(xdrop_native, "_KERNEL", None)
    assert native_kernel().available
    assert list(fresh_loader.glob("*.so")) == [library]
    reused = library.stat()  # a rebuild would rename a new file into place
    assert (reused.st_ino, reused.st_mtime_ns) == (built.st_ino, built.st_mtime_ns)


def test_failed_build_falls_back_to_numpy_with_the_reason(
    fresh_loader, monkeypatch, jobs, capsys
):
    broken = (sys.executable, "-c", "import sys; sys.exit('error: compiler is broken')")
    monkeypatch.setattr(xdrop_native, "COMPILE", broken)
    kernel = native_kernel()
    assert not kernel.available
    assert kernel.reason.endswith("exited 1: error: compiler is broken")
    assert kernel_name() == "numpy"
    assert not [p for p in fresh_loader.iterdir() if p.suffix in (".so", ".tmp")]
    with pytest.raises(RuntimeError, match="compiler is broken"):
        kernel.extend([("ACGT", "ACGT")])

    runner = ConformanceRunner(
        AlignConfig(engine="batched", xdrop=20, trace=True),
        engines=["reference", "batched"],
        include_service=False,
    )
    report = runner.run_jobs(jobs)
    assert report.ok, report.summary()

    with pytest.raises(SystemExit):
        main_align(["--list-engines"])
    out = capsys.readouterr().out
    assert "numpy fallback" in out and "compiler is broken" in out


def test_missing_compiler_is_recorded(fresh_loader, monkeypatch):
    monkeypatch.setattr(xdrop_native, "COMPILE", ("no-such-cc-on-this-path", "-O3"))
    kernel = native_kernel()
    assert not kernel.available
    assert "no-such-cc-on-this-path" in kernel.reason
    assert get_engine("batched", xdrop=20).align_batch([]).results == []

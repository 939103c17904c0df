"""Networked conformance: every workload profile through the full
distributed path (socket front door -> service -> C-kernel threads) must
come back bit-identical to the in-process oracle.

One runner (and therefore one server) per thread count is shared across
all profiles.
"""

from __future__ import annotations

import pytest

from repro.api import AlignConfig, ServiceConfig
from repro.testing import ConformanceRunner
from repro.workloads import WorkloadSpec, generate_workload, list_profiles


@pytest.fixture(scope="module", params=[1, 2], ids=lambda n: f"workers{n}")
def runner(request):
    config = AlignConfig(
        engine="batched",
        xdrop=20,
        workers=request.param,
        service=ServiceConfig(max_batch_size=16),
    )
    with ConformanceRunner(
        config=config,
        engines=["reference"],
        include_service=False,
        include_network=True,
    ) as runner:
        yield runner


def test_every_profile_is_bit_identical_over_the_network(runner):
    profiles = list_profiles()
    assert len(profiles) == 9
    total = None
    for name in profiles:
        spec = WorkloadSpec(count=3, seed=91, xdrop=20)
        report = runner.run_workload(generate_workload(name, spec))
        assert report.network_checked, name
        assert report.ok, f"{name}: {report.summary()}"
        total = report if total is None else total.merge(report)
    assert total.ok
    assert "+network" in total.summary()


def test_network_failures_would_be_reported(runner):
    # The report plumbing: a run with the network stage enabled marks it
    # checked even when zero mismatches were found, so a green report
    # positively asserts the stage executed rather than silently skipped.
    spec = WorkloadSpec(count=2, seed=17, xdrop=20)
    report = runner.run_workload(generate_workload(list_profiles()[0], spec))
    assert report.network_checked
    assert report.failures == []

"""Network front door: server/client round trips and graceful shutdown.

The in-process tests serve from this interpreter.  One subprocess test
drives the real CLI (``repro-service serve --listen``) end to end, SIGTERM
included.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.api import AlignConfig, ServiceConfig
from repro.core.scoring import ScoringScheme
from repro.distrib import AlignmentServer, ServiceClient
from repro.engine import get_engine
from repro.errors import ServiceError

XDROP = 30
_SCORING = ScoringScheme()


@pytest.fixture(scope="module")
def module_jobs():
    from repro.data.pairs import PairSetSpec, generate_pair_set

    spec = PairSetSpec(
        num_pairs=6,
        min_length=150,
        max_length=250,
        pairwise_error_rate=0.12,
        seed_length=11,
        seed_placement="middle",
        rng_seed=606,
    )
    return generate_pair_set(spec)


@pytest.fixture(scope="module")
def expected(module_jobs):
    engine = get_engine("batched", scoring=_SCORING, xdrop=XDROP)
    return engine.align_batch(module_jobs).results


@pytest.fixture(scope="module")
def server():
    config = AlignConfig(
        engine="batched",
        scoring=_SCORING,
        xdrop=XDROP,
        workers=2,
        service=ServiceConfig(max_batch_size=8),
    )
    with AlignmentServer(config=config) as srv:
        srv.start()
        yield srv


class TestRoundTrip:
    def test_ping_reports_identity(self, server):
        with ServiceClient(server.host, server.port) as client:
            identity = client.ping()
        assert identity["engine"] == "batched"
        assert identity["workers"] == 2
        assert set(identity) == {"pid", "engine", "workers", "state_path"}
        assert identity["pid"] == os.getpid()

    def test_submit_is_bit_identical_and_cache_flagged(
        self, server, module_jobs, expected
    ):
        with ServiceClient(server.host, server.port) as client:
            results, cached = client.submit_detailed(module_jobs)
            assert results == expected
            assert cached == [False] * len(module_jobs)
            again, cached_again = client.submit_detailed(module_jobs)
            assert again == expected
            assert cached_again == [True] * len(module_jobs)

    def test_stats_and_metrics_ops(self, server, module_jobs):
        with ServiceClient(server.host, server.port) as client:
            client.submit(module_jobs)
            stats = client.stats()
            assert stats["completed"] >= len(module_jobs)
            snap = client.metrics()
            assert snap.value("repro_server_connections_total") >= 1.0
            assert snap.value("repro_server_requests_total", op="submit") >= 1.0

    def test_unknown_op_is_a_client_error(self, server):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(ServiceError, match="op"):
                client._request({"op": "frobnicate"})

    def test_constructor_rejects_config_and_service_together(self, server):
        with pytest.raises(ServiceError, match="exactly one"):
            AlignmentServer(config=AlignConfig(), service=server.service)

    def test_connect_failure_is_a_service_error(self):
        with pytest.raises(ServiceError):
            ServiceClient("127.0.0.1", 1, timeout=2)


class TestCliFrontDoor:
    def test_listen_serves_and_sigterm_exits_cleanly(self, module_jobs, expected):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [src, env.get("PYTHONPATH", "")] if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "service",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--engine",
                "batched",
                "--xdrop",
                str(XDROP),
                "--workers",
                "2",
                "--json",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["workers"] == 2
            assert set(ready) == {"listening", "pid", "engine", "workers"}
            port = ready["listening"]["port"]
            with ServiceClient("127.0.0.1", port) as client:
                assert client.submit(module_jobs) == expected
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, stderr[-2000:]
        payload = json.loads(stdout)
        assert payload["mode"] == "listen"
        assert payload["completed"] == len(module_jobs)

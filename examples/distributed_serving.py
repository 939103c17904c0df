#!/usr/bin/env python
"""Distributed serving demo: a socket front door and durable state that
survives a restart.

Walks the whole :mod:`repro.distrib` surface:

* an :class:`~repro.distrib.AlignmentServer` wrapping an
  :class:`~repro.service.AlignmentService` whose C kernel splits every
  batch over two threads (``AlignConfig.workers``),
* a :class:`~repro.distrib.ServiceClient` submitting over the wire and
  reading back the server's metrics,
* a durable SQLite state file: after the server is torn down, a *new*
  service on the same file answers every request from the durable result
  table without aligning anything.

Everything is bit-identical to one direct ``align_batch`` call.

Run from the repository root::

    PYTHONPATH=src python examples/distributed_serving.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import AlignConfig, ServiceConfig
from repro.data import PairSetSpec, generate_pair_set
from repro.distrib import AlignmentServer, ServiceClient
from repro.engine import get_engine
from repro.service import AlignmentService

XDROP = 50


def main() -> None:
    jobs = generate_pair_set(
        PairSetSpec(
            num_pairs=48,
            min_length=200,
            max_length=900,
            pairwise_error_rate=0.15,
            seed_placement="middle",
            rng_seed=7,
        )
    )
    direct = get_engine("batched", xdrop=XDROP).align_batch(jobs)

    state_path = str(Path(tempfile.mkdtemp(prefix="repro-distrib-")) / "state.db")
    config = AlignConfig(
        engine="batched",
        xdrop=XDROP,
        workers=2,
        service=ServiceConfig(max_batch_size=16, state_path=state_path),
    )

    # -- serve over a real socket -----------------------------------------
    with AlignmentServer(config=config) as server:
        server.start()
        print(f"server listening on {server.host}:{server.port}")
        with ServiceClient(server.host, server.port) as client:
            identity = client.ping()
            print(f"server identity: {identity}")
            results, cached = client.submit_detailed(jobs)
            assert [r.score for r in results] == direct.scores()
            print(
                f"aligned {len(results)} jobs over the wire "
                f"(bit-identical: {results == direct.results}, "
                f"{sum(cached)} cache hits)"
            )
            snap = client.metrics()
            completed = snap.value("repro_service_completed_total")
            cells = snap.value("repro_service_cells_total")
            print(f"server metrics: {completed:.0f} jobs, {cells:.0f} DP cells")

    # -- restart: the durable result table answers everything -------------
    with AlignmentService(config=config) as reborn:
        tickets = reborn.submit_many(jobs)
        reborn.drain()
        replayed = [t.result(timeout=60.0) for t in tickets]
        assert replayed == direct.results
        assert all(t.cache_hit for t in tickets)
        print(
            f"after restart: {len(replayed)} results served from "
            f"{Path(state_path).name}, 0 batches aligned "
            f"(batches_formed={reborn.stats().batches_formed})"
        )


if __name__ == "__main__":
    main()

"""Distributed serving tier: durable state and a network front door.

This package extends the in-process serving layer (``repro.service``) across
two boundaries the service itself never crosses:

* **Restart boundary** — :class:`DurableStore` keeps the submission queue and
  the result cache in a WAL-mode SQLite file.  Jobs that were in flight when
  the process died are redelivered on the next start; completed results
  survive restarts and are content-addressed with the exact cache key the
  in-memory :class:`~repro.service.ResultCache` uses.
* **Network boundary** — :class:`AlignmentServer` / :class:`ServiceClient`
  speak a length-prefixed JSON protocol (``repro.distrib.wire``) so a client
  process can submit batches to a running ``repro-service serve --listen``
  server and read its metrics back.

Parallelism stays inside the server process: the service's engine splits
each batch over ``AlignConfig.workers`` C-kernel threads.  Everything stays
bit-identical to the in-process path: the conformance harness replays all
workload profiles through the socket and compares against the oracle.
"""

from .client import ServiceClient
from .server import AlignmentServer, GracefulShutdown
from .store import DurableStore

__all__ = [
    "AlignmentServer",
    "DurableStore",
    "GracefulShutdown",
    "ServiceClient",
]

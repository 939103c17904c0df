"""Asynchronous alignment service: queue -> cache -> batcher -> workers.

The serving layer over the engine registry.  Individually submitted
:class:`~repro.core.job.AlignmentJob` requests are content-addressed against
an LRU result cache, coalesced in submission order by a FIFO batcher into
engine-sized batches, and run on one engine whose C kernel splits each
batch over ``AlignConfig.workers`` threads — the paper's host-side batching
(Section IV) recast as a production front door.

>>> from repro.api import AlignConfig
>>> from repro.service import AlignmentService
>>> with AlignmentService(config=AlignConfig(engine="batched", xdrop=50)) as svc:
...     tickets = [svc.submit(job) for job in jobs]
...     svc.drain()
...     scores = [t.result().score for t in tickets]

See :mod:`repro.service.service` for the facade, and the sibling modules
for the individual stages.
"""

from .batcher import AdaptiveBatcher, BatchPolicy, FormedBatch
from .cache import CacheStats, ResultCache, job_cache_key
from .queue import AlignmentTicket, SubmissionQueue
from .service import AlignmentService, ServiceStats
from .workers import BatchRunner

__all__ = [
    "AlignmentService",
    "ServiceStats",
    "AlignmentTicket",
    "SubmissionQueue",
    "AdaptiveBatcher",
    "BatchPolicy",
    "FormedBatch",
    "ResultCache",
    "CacheStats",
    "job_cache_key",
    "BatchRunner",
]

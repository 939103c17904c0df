"""FIFO batch former: coalesce single submissions into engine-sized batches.

Pending tickets wait in one first-in-first-out list, whatever their
lengths.  The batcher flushes that list, in submission order, when

* it reaches ``max_batch_size`` jobs (the engine-sized batch), or
* its oldest job has waited ``max_wait_seconds`` (latency bound), or
* the service drains (shutdown / explicit flush).

This is the host-side batching of the paper's Section IV recast as a
serving policy: individually submitted requests amortise into the same
device-sized batches the offline pipeline builds up front.  Like LOGAN
(one thread block per extension) the batcher does not group by length:
the batched kernel's active-row compaction already retires short rows
early, so splitting a workload by length only adds anti-diagonal steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ServiceError
from .queue import AlignmentTicket

__all__ = ["BatchPolicy", "FormedBatch", "AdaptiveBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the batch former.

    Attributes
    ----------
    max_batch_size:
        Flush as soon as this many jobs are pending.
    max_wait_seconds:
        Flush once the oldest pending job has waited this long, even if
        the batch is not full (bounds per-request latency under light
        traffic).
    """

    max_batch_size: int = 64
    max_wait_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ServiceError(
                f"max_batch_size must be positive, got {self.max_batch_size}"
            )
        if self.max_wait_seconds < 0:
            raise ServiceError("max_wait_seconds must be non-negative")


@dataclass
class FormedBatch:
    """One batch the batcher decided to flush.

    Attributes
    ----------
    tickets:
        The member tickets, in submission order.
    reason:
        Why it flushed: ``"size"``, ``"wait"`` or ``"drain"``.
    """

    tickets: list[AlignmentTicket]
    reason: str

    @property
    def size(self) -> int:
        """Number of jobs in the batch."""
        return len(self.tickets)

    def jobs(self) -> list:
        """The member jobs, in submission order."""
        return [t.job for t in self.tickets]


#: Occupancy buckets: powers of two up to the default engine batch size x4.
_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class AdaptiveBatcher:
    """Holds pending tickets in one FIFO and decides when to flush it."""

    def __init__(self, policy: BatchPolicy | None = None, obs=None) -> None:
        self.policy = policy or BatchPolicy()
        self._tickets: list[AlignmentTicket] = []
        self._oldest_arrival = 0.0
        self.batches_formed = 0
        self.flush_reasons: dict[str, int] = {"size": 0, "wait": 0, "drain": 0}
        self._obs = obs
        if obs is not None:
            self._formed_counter = obs.counter(
                "repro_batches_formed_total",
                "batches flushed, by flush reason",
                ("reason",),
            )
            self._occupancy_hist = obs.histogram(
                "repro_batch_occupancy",
                "jobs per flushed batch",
                buckets=_OCCUPANCY_BUCKETS,
            )
            self._pending_gauge = obs.gauge(
                "repro_batcher_pending", "tickets waiting in the batcher"
            )
        else:
            self._formed_counter = None
            self._occupancy_hist = None
            self._pending_gauge = None

    @property
    def pending(self) -> int:
        """Number of tickets waiting in the FIFO."""
        return len(self._tickets)

    def add(self, ticket: AlignmentTicket, now: float) -> FormedBatch | None:
        """Admit one ticket; return a batch iff the FIFO just filled up."""
        if not self._tickets:
            self._oldest_arrival = now
        self._tickets.append(ticket)
        if len(self._tickets) >= self.policy.max_batch_size:
            return self._flush("size")
        if self._pending_gauge is not None:
            # The size-flush path refreshes the gauge inside _flush; this
            # branch covers the still-pending admission, so the gauge
            # tracks ``pending`` after every add.
            self._pending_gauge.set(self.pending)
        return None

    def due(self, now: float) -> list[FormedBatch]:
        """The pending batch, if its oldest member exceeded the wait bound."""
        if (
            self._tickets
            and now - self._oldest_arrival >= self.policy.max_wait_seconds
        ):
            return [self._flush("wait")]
        return []

    def next_deadline(self, now: float) -> float | None:
        """Seconds until the wait-bound flush (None when empty)."""
        if not self._tickets:
            return None
        return max(0.0, self._oldest_arrival + self.policy.max_wait_seconds - now)

    def flush_all(self) -> list[FormedBatch]:
        """Flush whatever is pending (drain / shutdown path)."""
        return [self._flush("drain")] if self._tickets else []

    def _flush(self, reason: str) -> FormedBatch:
        tickets, self._tickets = self._tickets, []
        self.batches_formed += 1
        self.flush_reasons[reason] += 1
        if self._formed_counter is not None:
            self._formed_counter.inc(reason=reason)
            self._occupancy_hist.observe(len(tickets))
            self._pending_gauge.set(0)
        if self._obs is not None:
            with self._obs.span("batcher.flush", reason=reason, size=len(tickets)):
                pass
        return FormedBatch(tickets=tickets, reason=reason)

"""The service's worker: runs formed batches on one engine.

Parallelism lives inside the engine: the ``batched`` and ``logan`` engines
split every batch over ``AlignConfig.workers`` C-kernel threads (ctypes
releases the GIL), so the runner makes one ``align_batch`` call per formed
batch and fails loudly when the engine answers with the wrong number of
results.
"""

from __future__ import annotations

from typing import Sequence

from ..core.job import AlignmentJob
from ..engine.base import AlignmentEngine, EngineBatchResult

__all__ = ["BatchRunner"]


class BatchRunner:
    """Runs the service's formed batches on *engine*, one call each."""

    def __init__(self, engine: AlignmentEngine) -> None:
        self.engine = engine

    def run_batch(
        self,
        jobs: Sequence[AlignmentJob],
        scoring=None,
        xdrop: int | None = None,
    ) -> EngineBatchResult:
        """Align *jobs* in one engine call; results in job order.

        *scoring*/*xdrop*, when given, override the engine's own defaults
        for this batch (forwarded to ``align_batch``).  The service always
        passes its own parameters here so the alignment is computed with
        exactly the values its content-addressed cache key records, even
        when the runner wraps an engine instance that was constructed with
        different defaults.

        Raises
        ------
        ValueError
            When the engine returns a different number of results than it
            was given jobs.
        """
        batch = self.engine.align_batch(jobs, scoring=scoring, xdrop=xdrop)
        if len(batch.results) != len(jobs):
            raise ValueError(
                f"engine returned {len(batch.results)} results for a batch of "
                f"{len(jobs)} jobs"
            )
        return batch

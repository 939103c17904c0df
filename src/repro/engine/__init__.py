"""Unified alignment-engine layer.

One registry, one interface, every aligner in the library: engines wrap the
scalar reference, the per-pair vectorised kernel, the inter-sequence batched
kernel, the SeqAn-like and ksw2 CPU baselines and the LOGAN GPU-model
aligner behind ``align_batch(jobs, scoring, xdrop)``.  Consumers — the BELLA
pipeline, the CLI and the benchmark harness — select an engine by name:

>>> from repro.engine import get_engine
>>> engine = get_engine("batched", xdrop=50)
>>> engine.align_batch(jobs).scores()

See :mod:`repro.engine.base` for the protocol/registry and
:mod:`repro.engine.engines` for the bundled implementations.
"""

from .base import (
    AlignmentEngine,
    EngineBatchResult,
    available_engines,
    describe_engines,
    engine_from_config,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from .engines import (
    BatchedEngine,
    Ksw2Engine,
    LoganEngine,
    ReferenceEngine,
    SeqAnEngine,
    VectorizedEngine,
)

__all__ = [
    "AlignmentEngine",
    "EngineBatchResult",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_from_config",
    "list_engines",
    "available_engines",
    "describe_engines",
    "ReferenceEngine",
    "VectorizedEngine",
    "BatchedEngine",
    "SeqAnEngine",
    "Ksw2Engine",
    "LoganEngine",
]

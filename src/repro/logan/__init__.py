"""LOGAN: the GPU X-drop batch aligner (kernel, host layer, load balancer).

Public surface:

* :class:`repro.logan.LoganAligner` — batch seed-and-extend aligner with the
  multi-GPU execution model (the reproduction of the paper's contribution);
* :class:`repro.logan.LoadBalancer` — the multi-GPU work splitter;
* :func:`repro.logan.threads_for_xdrop` — the X-proportional thread
  scheduling rule;
* :func:`repro.logan.extend_seed_batch` — the one batch seed-extension
  path (one pair-kernel call per batch) shared by the batch engines;
* the host preprocessing helpers (:func:`prepare_batch`, :class:`HostModel`).
"""

from .batch import LoganAligner, LoganBatchResult
from .host import (
    ExtensionTask,
    HostModel,
    PreparedBatch,
    prepare_batch,
    threads_for_xdrop,
)
from .kernel import extend_seed_batch
from .scheduler import DeviceAssignment, LoadBalancer

__all__ = [
    "LoganAligner",
    "LoganBatchResult",
    "LoadBalancer",
    "DeviceAssignment",
    "HostModel",
    "PreparedBatch",
    "ExtensionTask",
    "prepare_batch",
    "threads_for_xdrop",
    "extend_seed_batch",
]

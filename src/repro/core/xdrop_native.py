"""The C X-drop kernel (``xdrop_native.c``), built on first use, called through ctypes.

LOGAN gives every extension its own GPU block, so work follows each
extension's cells, not a padded batch shape; the C kernel sweeps each
extension over its own live band, bit-identical to
:func:`repro.core.xdrop.xdrop_extend_reference`.  :func:`native_kernel`
compiles it once with ``cc`` into ``$XDG_CACHE_HOME/repro/`` (default
``~/.cache/repro/``) under a digest of the source and the command, writing
a temporary file renamed into place under a file lock, so racing threads or
processes never load a half-written library.  Nothing is built at import.
Without a compiler, or when the build fails, the kernel is unavailable with
the reason recorded, and :func:`repro.logan.kernel.extend_pairs_batched`
runs the numpy kernel instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError
from .encoding import SequenceLike, encode
from .result import ExtensionResult
from .scoring import ScoringScheme

__all__ = ["NativeKernel", "native_kernel"]

SOURCE = Path(__file__).with_name("xdrop_native.c")
COMPILE = ("cc", "-O3", "-fPIC", "-shared", "-std=c99")

_LOCK = threading.Lock()
_KERNEL: NativeKernel | None = None


@dataclass(frozen=True)
class NativeKernel:
    """The loaded C batch entry point, or the reason there is none."""

    entry: Callable | None
    reason: str | None = None

    @property
    def available(self) -> bool:
        return self.entry is not None

    def extend(
        self,
        pairs: Sequence[tuple[SequenceLike, SequenceLike]],
        scoring: ScoringScheme | None = None,
        xdrop: int = 100,
        *,
        trace: bool = False,
        threads: int = 1,
    ) -> list[ExtensionResult]:
        """X-drop-extend every (query, target) pair; one result per pair, in order.

        The pairs are packed end to end with an offset table for one native
        call, or for ``threads`` calls on contiguous ranges of about equal
        total length, one per thread (ctypes releases the GIL).
        """
        if self.entry is None:
            raise RuntimeError(f"the C X-drop kernel is unavailable: {self.reason}")
        if xdrop < 0:
            raise ConfigurationError(f"X-drop threshold must be non-negative, got {xdrop}")
        scoring = scoring if scoring is not None else ScoringScheme()
        queries = [encode(q) for q, _ in pairs]
        targets = [encode(t) for _, t in pairs]
        count = len(pairs)
        if count == 0:
            return []
        qoff = np.cumsum([0] + [len(q) for q in queries], dtype=np.int64)
        toff = np.cumsum([0] + [len(t) for t in targets], dtype=np.int64)
        qbuf = np.concatenate(queries)
        tbuf = np.concatenate(targets)
        out = np.empty((count, 6), dtype=np.int64)
        # Pair k's band widths start at qoff[k] + toff[k] + k (m + n + 1 each).
        widths = np.empty(int(qoff[-1] + toff[-1]) + count, dtype=np.int64) if trace else None
        params = (*(int(v) for v in scoring.as_tuple()), int(xdrop))

        def run(first: int, last: int) -> None:
            longest = int(np.diff(qoff[first : last + 1]).max())
            scratch = np.empty(3 * (longest + 2), dtype=np.int64)
            self.entry(
                qbuf, qoff, tbuf, toff, first, last, *params, scratch, out,
                None if widths is None else widths.ctypes.data,
            )

        work = qoff + toff
        cuts = np.searchsorted(work, work[-1] * np.arange(1, max(1, threads)) / threads)
        bounds = np.unique(np.concatenate(([0], cuts, [count]))).tolist()
        if len(bounds) == 2:
            run(0, count)
        else:
            with ThreadPoolExecutor(max_workers=len(bounds) - 1) as pool:
                for future in [pool.submit(run, a, b) for a, b in zip(bounds, bounds[1:])]:
                    future.result()

        starts = (qoff[:-1] + toff[:-1] + np.arange(count)).tolist()
        return [  # fields in the order of ExtensionResult and of out's columns
            ExtensionResult(
                *row[:5], bool(row[5]),
                None if widths is None else widths[start : start + row[3]].copy(),
            )
            for row, start in zip(out.tolist(), starts, strict=True)
        ]


def native_kernel() -> NativeKernel:
    """The C kernel, built and loaded on the first call in the process."""
    global _KERNEL
    with _LOCK:
        if _KERNEL is None:
            _KERNEL = _load()
        return _KERNEL


def _build() -> Path:
    """Compile :data:`SOURCE` into the cache unless it is there; its path."""
    import fcntl  # POSIX only; elsewhere the ImportError is the recorded reason
    digest = hashlib.sha256(SOURCE.read_bytes() + " ".join(COMPILE).encode())
    directory = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro"
    library = directory / f"xdrop_native-{digest.hexdigest()[:16]}.so"
    if library.exists():
        return library
    directory.mkdir(parents=True, exist_ok=True)
    with open(library.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        if not library.exists():
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=library.name, suffix=".tmp")
            os.close(fd)
            try:
                subprocess.run(
                    [*COMPILE, "-o", tmp, str(SOURCE)],
                    check=True, capture_output=True, text=True,
                )
                os.replace(tmp, library)
            finally:
                Path(tmp).unlink(missing_ok=True)
    return library


def _load() -> NativeKernel:
    try:
        entry = ctypes.CDLL(str(_build())).xdrop_extend_packed
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.splitlines() or ["no output"]
        detail = next((line for line in lines if "error" in line), lines[-1])
        return NativeKernel(None, f"{COMPILE[0]} exited {exc.returncode}: {detail}")
    except (OSError, RuntimeError, ImportError) as exc:  # no cc, no cache dir, ...
        return NativeKernel(None, f"cannot build the C kernel: {exc}")
    u8p = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    i64p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    entry.argtypes = (
        [u8p, i64p, u8p, i64p] + [ctypes.c_int64] * 6 + [i64p, i64p, ctypes.c_void_p]
    )
    entry.restype = None
    return NativeKernel(entry)

"""Correctness oracle of the benchmark: the scalar X-drop reference in C.

Every alignment the benchmark times is checked against the semantics of the
``reference`` engine (:func:`repro.core.xdrop.xdrop_extend_reference`): the
score, the four end coordinates and the DP cell count must all match.  The
Python reference runs at about 1 M cells/s, far too slow to replay the
hundreds of millions of cells of one benchmark run, so the check runs on a
line-by-line C port (``oracle/xdrop_ref.c``).  Each run also replays a
seeded sample of its jobs through the Python ``reference`` engine itself
and requires the port to agree, so the port can never drift from the
shipped oracle unnoticed.

Oracle tables are cached on disk per job set (``.bench_cache/``), keyed by
a digest of the jobs' content, the scoring scheme and X.
"""

from __future__ import annotations

import ctypes
import hashlib
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

#: Columns of an oracle / result table, one row per alignment job.
COLUMNS = ("score", "query_begin", "query_end", "target_begin", "target_end", "cells")
ORACLE_VERSION = "1"


class Oracle:
    """Builds and calls the C reference; compares engine results with it."""

    def __init__(self, root: Path) -> None:
        self.cache_dir = root / ".bench_cache"
        build_dir = root / ".bench_build" / "perfbench"
        source_dir = Path(__file__).resolve().parent / "oracle"
        subprocess.run(
            ["make", "-s", "-C", str(source_dir), f"OUT={build_dir}"],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        lib = ctypes.CDLL(str(build_dir / "libxdrop_ref.so"))
        i64p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
        u8p = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
        fn = lib.xdrop_reference_batch
        fn.argtypes = [u8p, i64p, u8p, i64p] + [ctypes.c_int64] * 5 + [i64p]
        fn.restype = ctypes.c_int
        self._batch = fn

    # ------------------------------------------------------------------ #
    def _extend(self, pairs: list, scoring, xdrop: int) -> np.ndarray:
        """(n, 6) table: best, query_end, target_end, anti-diagonals, cells, early."""
        out = np.zeros((len(pairs), 6), dtype=np.int64)
        if not pairs:
            return out
        qoff = np.zeros(len(pairs) + 1, dtype=np.int64)
        toff = np.zeros(len(pairs) + 1, dtype=np.int64)
        qoff[1:] = np.cumsum([len(q) for q, _ in pairs])
        toff[1:] = np.cumsum([len(t) for _, t in pairs])
        qbuf = np.ascontiguousarray(np.concatenate([q for q, _ in pairs]), dtype=np.uint8)
        tbuf = np.ascontiguousarray(np.concatenate([t for _, t in pairs]), dtype=np.uint8)
        params = (*scoring.as_tuple(), xdrop)
        # ctypes releases the GIL during the call, so two threads over the
        # two halves of the packed batch use both cores.
        work = np.cumsum(np.diff(qoff) * np.diff(toff))
        mid = int(np.searchsorted(work, work[-1] / 2))
        with ThreadPoolExecutor(max_workers=2) as pool:
            statuses = list(pool.map(
                lambda span: self._batch(
                    qbuf, qoff[span[0]:], tbuf, toff[span[0]:],
                    span[1] - span[0], *params, out[span[0]:],
                ),
                [(0, mid), (mid, len(pairs))],
            ))
        if any(statuses):
            raise MemoryError("C oracle ran out of memory")
        return out

    def reference_table(self, jobs, scoring, xdrop: int) -> np.ndarray:
        """Oracle table of *jobs* (``COLUMNS``), cached on disk by content."""
        path = self.cache_dir / f"oracle-{_digest(jobs, scoring, xdrop)}.npy"
        if path.exists():
            return np.load(path)
        from repro.core.seed_extend import seed_score, split_on_seed

        sides: list = []
        slots: list = []  # per job: (left row or None, right row or None)
        for job in jobs:
            (lq, lt), (rq, rt) = split_on_seed(job.query, job.target, job.seed)
            slot = []
            for q, t in ((lq, lt), (rq, rt)):
                if len(q) and len(t):
                    slot.append(len(sides))
                    sides.append((q, t))
                else:
                    slot.append(None)
            slots.append(slot)
        ext = self._extend(sides, scoring, xdrop)
        empty = np.array([0, 0, 0, 1, 1, 0], dtype=np.int64)
        table = np.zeros((len(jobs), len(COLUMNS)), dtype=np.int64)
        for row, (job, (left_i, right_i)) in enumerate(zip(jobs, slots)):
            left = ext[left_i] if left_i is not None else empty
            right = ext[right_i] if right_i is not None else empty
            seed = job.seed
            anchor = seed_score(job.query, job.target, seed, scoring)
            table[row] = (
                left[0] + right[0] + anchor,
                seed.query_pos - left[1],
                seed.query_end + right[1],
                seed.target_pos - left[2],
                seed.target_end + right[2],
                left[4] + right[4],
            )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        np.save(path, table)
        return table

    def cross_check(self, jobs, table: np.ndarray, scoring, xdrop: int,
                    rng: np.random.Generator, max_cells: int) -> int:
        """Replay a random sample of *jobs* through the Python ``reference``
        engine; return how many disagree with the C oracle's *table*.

        Jobs are drawn in random order until *max_cells* oracle cells are
        covered (at least one job), which bounds the Python time.
        """
        from repro.engine import get_engine

        picked: list[int] = []
        budget = 0
        for index in rng.permutation(len(jobs)):
            cells = int(table[index, COLUMNS.index("cells")])
            if picked and budget + cells > max_cells:
                continue
            picked.append(int(index))
            budget += cells
        engine = get_engine("reference", scoring=scoring, xdrop=xdrop)
        batch = engine.align_batch([jobs[i] for i in picked])
        return int(np.sum(np.any(result_table(batch.results) != table[picked], axis=1)))


def result_table(results) -> np.ndarray:
    """Engine results as a ``COLUMNS`` table (cells = left + right)."""
    return np.array(
        [
            (
                r.score,
                r.query_begin,
                r.query_end,
                r.target_begin,
                r.target_end,
                r.left.cells_computed + r.right.cells_computed,
            )
            for r in results
        ],
        dtype=np.int64,
    ).reshape(-1, len(COLUMNS))


def _digest(jobs, scoring, xdrop: int) -> str:
    h = hashlib.sha256(f"{ORACLE_VERSION}|{scoring.as_tuple()}|{xdrop}".encode())
    for job in jobs:
        h.update(np.ascontiguousarray(job.query).tobytes())
        h.update(b"|")
        h.update(np.ascontiguousarray(job.target).tobytes())
        seed = job.seed
        h.update(f"|{seed.query_pos},{seed.target_pos},{seed.length};".encode())
    return h.hexdigest()[:24]

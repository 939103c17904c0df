"""Inter-sequence batched X-drop extension kernel in numpy (compacting + tiled).

The ``batched`` and ``logan`` engines run this kernel only on hosts where
the C kernel (:mod:`repro.core.xdrop_native`) cannot be built.  It exploits
LOGAN's *inter-sequence* parallelism in numpy: :func:`xdrop_extend_batch`
packs every extension of a batch into padded 2-D arrays, one row per
alignment (LOGAN's one-block-per-extension layout), and advances a single
global anti-diagonal counter.  Each step evaluates the three-parent
recurrence for every row's band at once, prunes with a per-row running
best (the per-block shared variable of the GPU kernel), trims each band to
its first/last finite cell, and retires a row when its band empties or its
DP matrix is exhausted.

Its cost grows with anti-diagonal steps times packed rows, so three
mechanisms keep the work proportional to what is alive, without changing a
single output bit:

**Active-row compaction.**  When the live fraction of the packed rows drops
below :data:`DEFAULT_COMPACT_THRESHOLD`, retired rows are scattered into
the result arrays and every per-row array is compacted to the survivors
(and its columns to the longest surviving query); a fractional threshold
keeps the total copy cost ``O(batch)``.

**Downsized DP buffers (int16/int32).**  When the largest score the batch
can produce (``(max_m + max_n) * max|param| + xdrop``) fits, buffers are
int16 (sentinel ``-2**14``) or int32 (sentinel ``-2**30``); each sentinel
stays strictly below any reachable cutoff after adding a score, and batches
that could overflow fall back to int64.

**Column tiling.**  A wide union band is swept in
:data:`DEFAULT_TILE_WIDTH`-column tiles that stay cache-resident; maxima,
argmaxima and band trims fold across tiles with first-occurrence
semantics.

Only the union of the live per-row bands is computed at every step.
Scores, end positions, cell counts and band traces are bit-identical to
the scalar reference for every row, whatever the compaction threshold and
tile width (tests force both through :func:`xdrop_extend_batch`'s
keyword-only parameters).  Pass a :class:`BatchKernelStats` as ``stats``
to collect work telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from .encoding import SequenceLike, WILDCARD_CODE, encode
from .result import NEG_INF, ExtensionResult
from .scoring import ScoringScheme

__all__ = [
    "BatchKernelStats",
    "DEFAULT_COMPACT_THRESHOLD",
    "DEFAULT_TILE_WIDTH",
    "xdrop_extend_batch",
]

#: Compact the packed arrays when the live fraction drops below this.
DEFAULT_COMPACT_THRESHOLD = 0.5

#: Column-tile width of the anti-diagonal sweep (cache-friendly tiles).
DEFAULT_TILE_WIDTH = 2048

_NEG64 = np.int64(NEG_INF)
#: Pruned-cell sentinels: a quarter of each dtype's range, so adding any
#: guarded score can neither wrap around nor climb above a real cutoff.
_NEG32 = np.int32(-(2**30))
_NEG16 = np.int16(-(2**14))
#: Largest score magnitude (including the X threshold) each downsized tier
#: accepts; beyond the int32 limit the kernel falls back to int64.
_INT32_SCORE_LIMIT = 2**30 - 1
_INT16_SCORE_LIMIT = 2**14 - 1

_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class BatchKernelStats:
    """Work telemetry of one (or more, via :meth:`merge`) batched sweeps.

    Attributes
    ----------
    rows:
        Extensions entering the kernel.
    steps:
        Anti-diagonal steps executed.  A step computes one anti-diagonal
        past the origin cell, so an extension reporting ``anti_diagonals``
        takes ``anti_diagonals - 1`` of them.  The numpy sweep counts one
        global step for all packed rows; the C kernel, which sweeps every
        row on its own, sums its rows' steps.
    row_steps:
        Sum over steps of the packed rows carried through the step — the
        quantity compaction minimises (without compaction it would be
        ``rows * steps``).
    active_row_steps:
        Sum over steps of the rows actually still extending:
        ``sum(anti_diagonals - 1)`` on both kernels.
    compactions:
        Physical compaction events.
    tiles:
        Column tiles swept.
    peak_window:
        Widest union band window seen (columns).
    cells:
        Useful DP cells computed (matches the per-result accounting).
    dtype:
        DP buffer dtype chosen by the overflow guard (``int16``/``int32``/
        ``int64``; ``mixed`` after merging sweeps that chose differently).
    """

    rows: int = 0
    steps: int = 0
    row_steps: int = 0
    active_row_steps: int = 0
    compactions: int = 0
    tiles: int = 0
    peak_window: int = 0
    cells: int = 0
    dtype: str = ""

    @property
    def live_fraction(self) -> float:
        """Mean fraction of carried rows that were still extending."""
        if self.row_steps == 0:
            return 1.0
        return self.active_row_steps / self.row_steps

    def merge(self, other: "BatchKernelStats") -> "BatchKernelStats":
        """Fold *other* into this accumulator (in place) and return self."""
        self.rows += other.rows
        self.steps += other.steps
        self.row_steps += other.row_steps
        self.active_row_steps += other.active_row_steps
        self.compactions += other.compactions
        self.tiles += other.tiles
        self.peak_window = max(self.peak_window, other.peak_window)
        self.cells += other.cells
        if other.dtype:
            self.dtype = other.dtype if not self.dtype else self.dtype
            if other.dtype != self.dtype:
                self.dtype = "mixed"
        return self

    def to_dict(self) -> dict:
        """JSON-ready representation (benchmark entries)."""
        return {
            "rows": self.rows,
            "steps": self.steps,
            "row_steps": self.row_steps,
            "active_row_steps": self.active_row_steps,
            "live_fraction": self.live_fraction,
            "compactions": self.compactions,
            "tiles": self.tiles,
            "peak_window": self.peak_window,
            "cells": self.cells,
            "dtype": self.dtype,
        }


def _select_dtype(max_m: int, max_n: int, scoring: ScoringScheme, xdrop: int):
    """DP buffer dtype + pruned-cell sentinel, guarded against overflow.

    A downsized dtype is used only when every score the batch can possibly
    produce — bounded by ``(max_m + max_n) * max|param|`` — plus the X
    threshold and a few parameter magnitudes of transient slack stays
    strictly inside a quarter of the dtype's range, so ``sentinel +
    max(param)`` can neither wrap around nor rise above any reachable
    cutoff.  Short-read batches with small scoring parameters fit int16
    (quadrupling the cells per cache line); anything that could overflow
    falls back through int32 to int64.
    """
    max_abs = max(
        abs(int(scoring.match)), abs(int(scoring.mismatch)), abs(int(scoring.gap)), 1
    )
    bound = (max_m + max_n) * max_abs + int(xdrop) + 4 * max_abs
    if bound < _INT16_SCORE_LIMIT:
        return np.int16, _NEG16
    if bound < _INT32_SCORE_LIMIT:
        return np.int32, _NEG32
    return np.int64, _NEG64


def _pack(seqs: list[np.ndarray], width: int) -> np.ndarray:
    """Pack variable-length code arrays into one padded uint8 matrix.

    Column 0 is a guard column so the base consumed by DP row ``i`` /
    column ``j`` lives at matrix column ``i`` / ``j`` — the per-step reads
    become plain (possibly reversed) slices instead of index gathers.
    Padding and the guard use the wildcard code, which never scores a
    match; padded cells are additionally masked out by the per-row band
    bounds.
    """
    out = np.full((len(seqs), max(width, 1) + 1), WILDCARD_CODE, dtype=np.uint8)
    for row, seq in enumerate(seqs):
        if len(seq):
            out[row, 1 : len(seq) + 1] = seq
    return out


def xdrop_extend_batch(
    pairs: Sequence[tuple[SequenceLike, SequenceLike]],
    scoring: ScoringScheme | None = None,
    xdrop: int = 100,
    trace: bool = False,
    *,
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    tile_width: int = DEFAULT_TILE_WIDTH,
    stats: BatchKernelStats | None = None,
) -> list[ExtensionResult]:
    """X-drop-extend every (query, target) pair of a batch simultaneously.

    Parameters
    ----------
    pairs:
        The extensions to run, each a ``(query, target)`` tuple (strings or
        encoded ``uint8`` arrays).  Every extension starts at its own
        position (0, 0), as in :func:`repro.core.xdrop.xdrop_extend_reference`.
        Empty sequences are rejected (the shared kernel contract): callers
        must filter seed-flush extensions, as the batch runners do.
    scoring:
        Linear-gap scoring scheme shared by the whole batch.
    xdrop:
        X-drop threshold shared by the whole batch.
    trace:
        Record per-anti-diagonal band widths in every result (consumed by
        the GPU execution model).
    compact_threshold:
        Live fraction below which retired rows are physically compacted
        away (``0`` disables compaction).  Results are invariant to it;
        only tests pass a value other than the default.
    tile_width:
        Column-tile width of the per-step sweep.  Results are invariant to
        it; only tests pass a value other than the default.
    stats:
        Optional :class:`BatchKernelStats` accumulator updated in place
        with the sweep's work telemetry.

    Returns
    -------
    list[ExtensionResult]
        One result per pair, in input order, identical to running the
        scalar reference on each pair individually.
    """
    if xdrop < 0:
        raise ConfigurationError(f"X-drop threshold must be non-negative, got {xdrop}")
    if not 0.0 <= compact_threshold <= 1.0:
        raise ConfigurationError(
            f"compact_threshold must be in [0.0, 1.0] (0 disables compaction), "
            f"got {compact_threshold}"
        )
    if tile_width < 1:
        raise ConfigurationError(f"tile_width must be positive, got {tile_width}")
    scoring = scoring if scoring is not None else ScoringScheme()
    if not pairs:
        return []

    queries = [encode(q) for q, _ in pairs]
    targets = [encode(t) for _, t in pairs]
    batch = len(pairs)
    m = np.array([len(q) for q in queries], dtype=np.int64)
    n = np.array([len(t) for t in targets], dtype=np.int64)
    max_m = int(m.max())
    max_n = int(n.max())
    dtype, neg = _select_dtype(max_m, max_n, scoring, xdrop)
    match, mismatch, gap = dtype(scoring.match), dtype(scoring.mismatch), dtype(scoring.gap)
    xdrop_c = dtype(xdrop)

    q_mat = _pack(queries, max_m)
    t_mat = _pack(targets, max_n)

    # Three anti-diagonal buffers, one row per alignment.  Buffer column
    # b corresponds to DP row i = b - 1; column 0 is a -inf guard.
    size = max_m + 2
    prev2 = np.full((batch, size), neg, dtype=dtype)
    prev = np.full((batch, size), neg, dtype=dtype)
    cur = np.full((batch, size), neg, dtype=dtype)
    prev[:, 1] = 0  # origin cell (0, 0) of every alignment
    # Extent of columns last written into each buffer, cleared on reuse so a
    # recycled buffer never exposes stale scores ([start, stop) or None).
    prev2_ext: tuple[int, int] | None = None
    prev_ext: tuple[int, int] | None = (1, 2)
    cur_ext: tuple[int, int] | None = None

    # Per-row band state (DP-row index space, matching the scalar reference).
    prev_lo = np.zeros(batch, dtype=np.int64)
    prev_hi = np.zeros(batch, dtype=np.int64)
    prev2_lo = np.zeros(batch, dtype=np.int64)
    prev2_hi = np.full(batch, -1, dtype=np.int64)

    best = np.zeros(batch, dtype=dtype)
    best_i = np.zeros(batch, dtype=np.int64)
    best_j = np.zeros(batch, dtype=np.int64)
    cells = np.ones(batch, dtype=np.int64)
    anti = np.ones(batch, dtype=np.int64)
    active = np.ones(batch, dtype=bool)
    early = np.zeros(batch, dtype=bool)

    # Rows are physically compacted as they retire; ``row_ids`` maps packed
    # rows back to input order and retired rows are scattered into the
    # ``out_*`` result arrays (at compaction time, or after the sweep).
    row_ids = np.arange(batch, dtype=np.int64)
    out_best = np.zeros(batch, dtype=np.int64)
    out_best_i = np.zeros(batch, dtype=np.int64)
    out_best_j = np.zeros(batch, dtype=np.int64)
    out_cells = np.zeros(batch, dtype=np.int64)
    out_anti = np.zeros(batch, dtype=np.int64)
    out_early = np.zeros(batch, dtype=bool)
    rows = batch

    last_diag = int((m + n).max())
    widths_rec: np.ndarray | None = None
    if trace:
        widths_rec = np.zeros((last_diag + 1, batch), dtype=np.int64)
        widths_rec[0, :] = 1

    if stats is not None:
        stats.rows += batch
        stats.dtype = stats.dtype or np.dtype(dtype).name

    for d in range(1, last_diag + 1):
        # Per-row band of anti-diagonal d: matrix bounds clipped by the rows
        # reachable from the two previous (trimmed) bands.  Retired rows are
        # compacted away below, so bound derivation never re-runs for a
        # whole batch of dead rows.
        lo = np.maximum(d - n, 0)
        hi = np.minimum(d, m)
        reach_lo = prev_lo.copy()
        reach_hi = prev_hi + 1
        has_prev2 = prev2_hi >= prev2_lo
        np.minimum(reach_lo, prev2_lo + 1, out=reach_lo, where=has_prev2)
        np.maximum(reach_hi, prev2_hi + 1, out=reach_hi, where=has_prev2)
        np.maximum(lo, reach_lo, out=lo)
        np.minimum(hi, reach_hi, out=hi)

        exhausted = active & (lo > hi)
        if exhausted.any():
            # Band emptied before the far corner => genuine early stop;
            # d beyond m + n is just the natural end of the matrix.
            early |= exhausted & (d <= m + n)
            active &= ~exhausted
        n_active = int(np.count_nonzero(active))
        if n_active == 0:
            break

        if (
            compact_threshold > 0.0
            and n_active < rows
            and n_active <= rows * compact_threshold
        ):
            dropped = ~active
            ids = row_ids[dropped]
            out_best[ids] = best[dropped]
            out_best_i[ids] = best_i[dropped]
            out_best_j[ids] = best_j[dropped]
            out_cells[ids] = cells[dropped]
            out_anti[ids] = anti[dropped]
            out_early[ids] = early[dropped]

            keep = active
            row_ids = row_ids[keep]
            m, n = m[keep], n[keep]
            max_m, max_n = int(m.max()), int(n.max())
            q_mat = q_mat[keep, : max_m + 1]
            t_mat = t_mat[keep, : max_n + 1]
            size = max_m + 2
            prev2 = prev2[keep, :size]
            prev = prev[keep, :size]
            cur = cur[keep, :size]
            prev2_ext = _clamp_ext(prev2_ext, size)
            prev_ext = _clamp_ext(prev_ext, size)
            cur_ext = _clamp_ext(cur_ext, size)
            prev_lo, prev_hi = prev_lo[keep], prev_hi[keep]
            prev2_lo, prev2_hi = prev2_lo[keep], prev2_hi[keep]
            lo, hi = lo[keep], hi[keep]
            best, best_i, best_j = best[keep], best_i[keep], best_j[keep]
            cells, anti, early = cells[keep], anti[keep], early[keep]
            rows = n_active
            active = np.ones(rows, dtype=bool)
            if stats is not None:
                stats.compactions += 1

        # Union window of the live bands: the only columns computed.
        win_lo = int(lo[active].min())
        win_hi = int(hi[active].max())
        width = win_hi - win_lo + 1

        if stats is not None:
            stats.steps += 1
            stats.row_steps += rows
            stats.active_row_steps += n_active
            if width > stats.peak_window:
                stats.peak_window = width

        cutoff = (best - xdrop_c)[:, None]
        lo_col, hi_col = lo[:, None], hi[:, None]
        # Clear only the stale part of the recycled scratch diagonal the
        # tiles will not overwrite (they fill [win_lo + 1, win_hi + 2)).
        if cur_ext is not None:
            a, b = cur_ext
            if a < win_lo + 1:
                cur[:, a : min(b, win_lo + 1)] = neg
            if b > win_hi + 2:
                cur[:, max(a, win_hi + 2) : b] = neg
        cur_ext = (win_lo + 1, win_hi + 2)

        # The horizontal parents of the whole window, computed once: column
        # c holds prev[c] + gap, i.e. the gap-penalised diag-(d-1) cell of
        # DP row c - 1.
        prev_gap = prev[:, win_lo : win_hi + 2] + gap

        i_all = np.arange(win_lo, win_hi + 1, dtype=np.int64)
        row_best = np.full(rows, neg, dtype=dtype)
        row_arg = np.zeros(rows, dtype=np.int64)
        first = np.full(rows, _INT64_MAX, dtype=np.int64)
        last = np.full(rows, -1, dtype=np.int64)

        # Sweep the window in cache-friendly column tiles; maxima, argmaxima
        # and band trims fold across tiles with first-occurrence semantics
        # identical to one full-width pass.
        for t_lo in range(win_lo, win_hi + 1, tile_width):
            t_hi = min(t_lo + tile_width - 1, win_hi)
            i_idx = i_all[t_lo - win_lo : t_hi - win_lo + 1]
            # Guard-column packing makes both substitution operands plain
            # slices: the query bases of DP rows t_lo..t_hi sit at columns
            # t_lo..t_hi, the target bases of the matching anti-diagonal
            # columns at d - i (a reversed slice).  Guard reads at i == 0 /
            # j == 0 are harmless: the corresponding parents are -inf.
            qa = q_mat[:, t_lo : t_hi + 1]
            j_stop = d - t_hi - 1
            ta = t_mat[:, d - t_lo : (j_stop if j_stop >= 0 else None) : -1]
            vals = cur[:, t_lo + 1 : t_hi + 2]
            np.multiply(
                (qa == ta) & (qa != WILDCARD_CODE),
                match - mismatch,
                out=vals,
                casting="unsafe",
            )
            vals += mismatch
            vals += prev2[:, t_lo : t_hi + 1]  # parent (i-1, j-1)
            base = t_lo - win_lo
            np.maximum(vals, prev_gap[:, base : base + len(i_idx)], out=vals)  # (i-1, j)
            np.maximum(vals, prev_gap[:, base + 1 : base + 1 + len(i_idx)], out=vals)  # (i, j-1)

            # Retired rows carry an empty band (lo > hi), so one pair of
            # bound comparisons masks both out-of-band and retired cells.
            np.copyto(
                vals,
                neg,
                where=(i_idx < lo_col) | (i_idx > hi_col) | (vals < cutoff),
            )
            if stats is not None:
                stats.tiles += 1

            finite = vals > neg
            t_any = finite.any(axis=1)
            if not t_any.any():
                continue
            t_max = vals.max(axis=1)
            t_arg = t_lo + vals.argmax(axis=1)
            better = t_max > row_best
            np.copyto(row_arg, t_arg, where=better)
            np.copyto(row_best, t_max, where=better)
            t_first = np.where(t_any, t_lo + finite.argmax(axis=1), _INT64_MAX)
            np.minimum(first, t_first, out=first)
            t_last = np.where(t_any, t_hi - finite[:, ::-1].argmax(axis=1), -1)
            np.maximum(last, t_last, out=last)

        band_width = np.where(active, hi - lo + 1, 0)
        cells += band_width
        anti += active
        if widths_rec is not None:
            widths_rec[d, row_ids] = band_width

        stopped = active & (last < 0)
        if stopped.any():
            early |= stopped
            active &= ~stopped
        if not active.any():
            break

        # Per-row anti-diagonal maximum (the warp-shuffle reduction of the
        # GPU kernel); the shared best is updated after the whole diagonal.
        improved = row_best > best
        np.copyto(best_i, row_arg, where=improved)
        np.copyto(best_j, d - row_arg, where=improved)
        np.copyto(best, row_best, where=improved)

        # The tile fold already trimmed every row's band to its first/last
        # finite cell; rotate the band state and the scratch buffers.
        # Retired rows get an *empty* band in both states so their bounds
        # derive to lo > hi on every later step — the masking above then
        # needs no separate active test, and a dead row can never resurrect
        # from stale buffer contents.
        prev2_lo = np.where(active, prev_lo, 1)
        prev2_hi = np.where(active, prev_hi, -2)
        prev_lo = np.where(active, first, 1)
        prev_hi = np.where(active, last, -2)

        prev2, prev, cur = prev, cur, prev2
        prev2_ext, prev_ext, cur_ext = prev_ext, cur_ext, prev2_ext

    # Scatter the rows still packed (survivors + not-yet-compacted retirees).
    out_best[row_ids] = best
    out_best_i[row_ids] = best_i
    out_best_j[row_ids] = best_j
    out_cells[row_ids] = cells
    out_anti[row_ids] = anti
    out_early[row_ids] = early
    if stats is not None:
        stats.cells += int(out_cells.sum())

    results: list[ExtensionResult] = []
    for k in range(batch):
        band_widths = None
        if widths_rec is not None:
            col = widths_rec[:, k]
            band_widths = np.ascontiguousarray(col[col > 0])
        results.append(
            ExtensionResult(
                best_score=int(out_best[k]),
                query_end=int(out_best_i[k]),
                target_end=int(out_best_j[k]),
                anti_diagonals=int(out_anti[k]),
                cells_computed=int(out_cells[k]),
                terminated_early=bool(out_early[k]),
                band_widths=band_widths,
            )
        )
    return results


def _clamp_ext(ext: tuple[int, int] | None, size: int) -> tuple[int, int] | None:
    """Clip a buffer-extent record to a shrunken column count."""
    if ext is None:
        return None
    return (min(ext[0], size), min(ext[1], size))

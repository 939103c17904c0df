"""Sparse-matrix overlap detection (BELLA stage 2).

BELLA discovers candidate overlaps with a sparse matrix-matrix
multiplication: with ``A`` the (reads x reliable k-mers) occurrence matrix,
``C = A @ A.T`` counts, for every read pair, the number of reliable k-mers
they share; non-zero off-diagonal entries are the candidate overlaps handed
to the alignment stage.  This module implements exactly that with
``scipy.sparse`` CSR matrices, and augments the SpGEMM result with the
shared k-mer *positions* (from the occurrence index) that the seed-selection
stage needs.  scipy is imported inside the SpGEMM functions, so importing
the package (and the serving path) needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError
from .kmer import KmerIndex

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["CandidateOverlap", "OverlapMatrix", "build_occurrence_matrix", "find_candidate_overlaps"]


@dataclass
class CandidateOverlap:
    """A candidate overlap between two reads found by the SpGEMM stage.

    Attributes
    ----------
    read_i, read_j:
        Read indices with ``read_i < read_j``.
    shared_kmers:
        Number of reliable k-mers the two reads share.
    seed_positions:
        List of ``(position_in_i, position_in_j)`` for every shared k-mer
        (first occurrence per read), used by the binning stage to pick the
        seed to extend from.
    """

    read_i: int
    read_j: int
    shared_kmers: int
    seed_positions: list[tuple[int, int]] = field(default_factory=list)

    @property
    def pair(self) -> tuple[int, int]:
        """The (i, j) read-index pair."""
        return (self.read_i, self.read_j)


@dataclass
class OverlapMatrix:
    """Result of the overlap-detection stage.

    Attributes
    ----------
    candidates:
        Candidate overlaps with at least ``min_shared_kmers`` shared k-mers.
    matrix:
        The sparse candidate matrix ``C = A @ A.T`` (upper triangle),
        exposed for inspection and tests.
    num_reads:
        Number of reads.
    """

    candidates: list[CandidateOverlap]
    matrix: sparse.csr_matrix
    num_reads: int

    @property
    def num_candidates(self) -> int:
        """Number of candidate overlaps."""
        return len(self.candidates)


def build_occurrence_matrix(index: KmerIndex) -> sparse.csr_matrix:
    """Build the (reads x reliable k-mers) boolean occurrence matrix ``A``."""
    from scipy import sparse

    kmer_ids = {code: column for column, code in enumerate(sorted(index.occurrences))}
    rows: list[int] = []
    cols: list[int] = []
    for code, occurrences in index.occurrences.items():
        column = kmer_ids[code]
        for read_index, _pos in occurrences:
            rows.append(read_index)
            cols.append(column)
    data = np.ones(len(rows), dtype=np.int32)
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(index.num_reads, len(kmer_ids))
    )


def find_candidate_overlaps(
    index: KmerIndex, min_shared_kmers: int = 1
) -> OverlapMatrix:
    """Run the SpGEMM overlap detection over a reliable-k-mer index.

    Parameters
    ----------
    index:
        The reliable-k-mer occurrence index.
    min_shared_kmers:
        Minimum number of shared reliable k-mers for a pair to become a
        candidate (BELLA default: 1).

    Returns
    -------
    OverlapMatrix
        Candidates sorted by ``(read_i, read_j)``.
    """
    if min_shared_kmers < 1:
        raise ConfigurationError("min_shared_kmers must be at least 1")
    from scipy import sparse

    occurrence = build_occurrence_matrix(index)
    candidate_matrix = (occurrence @ occurrence.T).tocsr()
    upper = sparse.triu(candidate_matrix, k=1).tocoo()

    # Collect shared k-mer positions per pair from the occurrence index.
    positions: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for occurrences in index.occurrences.values():
        if len(occurrences) < 2:
            continue
        for a in range(len(occurrences)):
            read_a, pos_a = occurrences[a]
            for b in range(a + 1, len(occurrences)):
                read_b, pos_b = occurrences[b]
                if read_a == read_b:
                    continue
                if read_a < read_b:
                    key, value = (read_a, read_b), (pos_a, pos_b)
                else:
                    key, value = (read_b, read_a), (pos_b, pos_a)
                positions.setdefault(key, []).append(value)

    candidates: list[CandidateOverlap] = []
    for i, j, shared in zip(upper.row, upper.col, upper.data):
        if shared < min_shared_kmers:
            continue
        pair = (int(i), int(j))
        candidates.append(
            CandidateOverlap(
                read_i=pair[0],
                read_j=pair[1],
                shared_kmers=int(shared),
                seed_positions=positions.get(pair, []),
            )
        )
    candidates.sort(key=lambda c: c.pair)
    return OverlapMatrix(
        candidates=candidates, matrix=candidate_matrix, num_reads=index.num_reads
    )

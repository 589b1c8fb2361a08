"""Baseline CSC encoding (§4.2, Fig. 3 top-left).

Two arrays per polarity: ``indices`` holds absolute input indices, and
``pointers`` (length ``n_out + 1``) holds the boundary of each output
column inside ``indices``.  Traversal is stateless and sequential; the cost
is that pointer values range up to ``nnz`` and indices up to ``n_in - 1``,
each promoting the whole array to 16 bits once 8 bits no longer suffice —
the scalability limit the paper calls out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encodings.base import (
    Polarity,
    SparseEncoding,
    array_with_width,
    narrowest_array,
    split_polarities,
    width_bytes_for,
)


@dataclass(frozen=True)
class PolarityCSC:
    """One polarity's pointer + index arrays."""

    pointers: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_polarity(cls, polarity: Polarity, n_in: int) -> "PolarityCSC":
        pointers = np.concatenate(([0], np.cumsum(polarity.counts)))
        return cls(
            pointers=narrowest_array(pointers),
            indices=array_with_width(
                polarity.rows, width_bytes_for(max(n_in - 1, 0))
            ),
        )

    def column(self, j: int) -> np.ndarray:
        lo, hi = int(self.pointers[j]), int(self.pointers[j + 1])
        return self.indices[lo:hi].astype(np.int64)


class CSCEncoding(SparseEncoding):
    """Standard compressed-sparse-column layout, one per polarity."""

    format_name = "csc"

    def __init__(self, n_in: int, n_out: int, pos: PolarityCSC,
                 neg: PolarityCSC) -> None:
        self._n_in = n_in
        self._n_out = n_out
        self.pos = pos
        self.neg = neg

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, **options) -> "CSCEncoding":
        if options:
            raise TypeError(f"csc takes no options, got {sorted(options)}")
        n_in, n_out, pos, neg = split_polarities(matrix)
        return cls(
            n_in=n_in,
            n_out=n_out,
            pos=PolarityCSC.from_polarity(pos, n_in),
            neg=PolarityCSC.from_polarity(neg, n_in),
        )

    def to_matrix(self) -> np.ndarray:
        matrix = np.zeros((self._n_in, self._n_out), dtype=np.int8)
        for j in range(self._n_out):
            matrix[self.pos.column(j), j] = 1
            matrix[self.neg.column(j), j] = -1
        return matrix

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "pos_pointers": self.pos.pointers,
            "pos_indices": self.pos.indices,
            "neg_pointers": self.neg.pointers,
            "neg_indices": self.neg.indices,
        }

    @property
    def n_in(self) -> int:
        return self._n_in

    @property
    def n_out(self) -> int:
        return self._n_out

    @property
    def nnz(self) -> int:
        return len(self.pos.indices) + len(self.neg.indices)

    @property
    def index_width(self) -> int:
        """Bytes per index element (1 or 2); max across polarities."""
        return max(self.pos.indices.itemsize, self.neg.indices.itemsize)

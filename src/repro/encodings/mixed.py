"""Mixed encoding (§4.2, Fig. 3 top-right).

A compromise between the CSC baseline and the delta format: the column
metadata stores per-column *counts* (like delta, so no wide pointer array),
but the index array keeps *absolute* input indices (like CSC, so traversal
is stateless — each element load is independent of the previous one, with
no sequential cumsum dependency).
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
class PolarityMixed:
    """One polarity's count array and absolute index stream."""

    counts: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_polarity(cls, polarity: Polarity, n_in: int) -> "PolarityMixed":
        return cls(
            counts=narrowest_array(polarity.counts),
            indices=array_with_width(
                polarity.rows, width_bytes_for(max(n_in - 1, 0))
            ),
        )

    def columns(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        cursor = 0
        for count in self.counts:
            count = int(count)
            out.append(self.indices[cursor : cursor + count].astype(np.int64))
            cursor += count
        return out


class MixedEncoding(SparseEncoding):
    """Per-column counts + absolute indices."""

    format_name = "mixed"

    def __init__(self, n_in: int, n_out: int, pos: PolarityMixed,
                 neg: PolarityMixed) -> None:
        self._n_in = n_in
        self._n_out = n_out
        self.pos = pos
        self.neg = neg

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, **options) -> "MixedEncoding":
        if options:
            raise TypeError(f"mixed takes no options, got {sorted(options)}")
        n_in, n_out, pos, neg = split_polarities(matrix)
        return cls(
            n_in=n_in,
            n_out=n_out,
            pos=PolarityMixed.from_polarity(pos, n_in),
            neg=PolarityMixed.from_polarity(neg, n_in),
        )

    def to_matrix(self) -> np.ndarray:
        matrix = np.zeros((self._n_in, self._n_out), dtype=np.int8)
        for j, col in enumerate(self.pos.columns()):
            matrix[col, j] = 1
        for j, col in enumerate(self.neg.columns()):
            matrix[col, j] = -1
        return matrix

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "pos_counts": self.pos.counts,
            "pos_indices": self.pos.indices,
            "neg_counts": self.neg.counts,
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
        return max(self.pos.indices.itemsize, self.neg.indices.itemsize)

"""Delta-based encoding (§4.2, Fig. 3 bottom-left; traversal in Fig. 4).

Per output column, the stream stores the *absolute* index of the first
connected input followed by relative offsets from the previous index; the
column "pointer" array stores only the per-column element count.  Traversal
is a pure pointer bump: no index reconstruction, no position bookkeeping.

Offsets may be *prescaled* by the activation element size so the kernel can
add them to an address directly (the deployment trick the pseudocode's
``I_PTR = I_PTR + [++P_PTR]`` relies on).  Prescaling doubles the stored
values for 16-bit activations, which is exactly why this format "does not
guarantee that all offsets fall within the 8-bit range" (paper, §4.2): one
large gap promotes the whole stream to 16 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encodings.base import (
    Polarity,
    SparseEncoding,
    narrowest_array,
    split_polarities,
)
from repro.errors import EncodingError


@dataclass(frozen=True)
class PolarityDelta:
    """One polarity's count array and first+offsets stream."""

    counts: np.ndarray
    stream: np.ndarray

    @classmethod
    def from_polarity(
        cls, polarity: Polarity, stride: int
    ) -> "PolarityDelta":
        rows = polarity.rows
        # Each row's gap to the previous one, except that a column's
        # first connection keeps its absolute row.
        stream = np.diff(rows, prepend=0)
        starts = np.flatnonzero(np.diff(polarity.columns, prepend=-1))
        stream[starts] = rows[starts]
        stream *= stride
        return cls(
            counts=narrowest_array(polarity.counts),
            stream=narrowest_array(stream),
        )

    def columns(self, stride: int) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        cursor = 0
        for count in self.counts:
            count = int(count)
            chunk = self.stream[cursor : cursor + count].astype(np.int64)
            cursor += count
            if count == 0:
                out.append(np.zeros(0, dtype=np.int64))
                continue
            if (chunk % stride).any():
                raise EncodingError("stream value not a stride multiple")
            out.append(np.cumsum(chunk // stride))
        return out


class DeltaEncoding(SparseEncoding):
    """First-absolute-then-offsets stream with per-column counts."""

    format_name = "delta"

    def __init__(self, n_in: int, n_out: int, stride: int,
                 pos: PolarityDelta, neg: PolarityDelta) -> None:
        self._n_in = n_in
        self._n_out = n_out
        self.stride = stride
        self.pos = pos
        self.neg = neg

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, *, stride: int = 1,
                    **options) -> "DeltaEncoding":
        if options:
            raise TypeError(f"unexpected options {sorted(options)}")
        if stride not in (1, 2):
            raise EncodingError(f"stride must be 1 or 2, got {stride}")
        n_in, n_out, pos, neg = split_polarities(matrix)
        return cls(
            n_in=n_in,
            n_out=n_out,
            stride=stride,
            pos=PolarityDelta.from_polarity(pos, stride),
            neg=PolarityDelta.from_polarity(neg, stride),
        )

    def to_matrix(self) -> np.ndarray:
        matrix = np.zeros((self._n_in, self._n_out), dtype=np.int8)
        for j, col in enumerate(self.pos.columns(self.stride)):
            matrix[col, j] = 1
        for j, col in enumerate(self.neg.columns(self.stride)):
            matrix[col, j] = -1
        return matrix

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "pos_counts": self.pos.counts,
            "pos_stream": self.pos.stream,
            "neg_counts": self.neg.counts,
            "neg_stream": self.neg.stream,
        }

    @property
    def n_in(self) -> int:
        return self._n_in

    @property
    def n_out(self) -> int:
        return self._n_out

    @property
    def nnz(self) -> int:
        return len(self.pos.stream) + len(self.neg.stream)

    @property
    def stream_width(self) -> int:
        """Bytes per stream element (1 when every offset fits 8 bits)."""
        return max(self.pos.stream.itemsize, self.neg.stream.itemsize)

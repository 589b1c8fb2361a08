"""Block-based encoding (§4.2, Fig. 3 bottom-right).

The input space is partitioned into fixed-size blocks of at most 256
inputs.  Each block keeps an independent mixed-style encoding (per-column
counts + block-local absolute indices).  Because indices are block-local,
they are *guaranteed* to fit in 8 bits by construction — the property that
makes this the most memory-efficient format in Figure 5b.

Inference proceeds in one pass per block, accumulating partial sums into a
RAM buffer; the extra pass structure costs a little latency (Figure 5a)
in exchange for the guaranteed 8-bit storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encodings.base import (
    Polarity,
    SparseEncoding,
    array_with_width,
    split_polarities,
    width_bytes_for,
)
from repro.errors import EncodingError

MAX_BLOCK_SIZE = 256


@dataclass(frozen=True)
class BlockPolarity:
    """One (block, polarity) pair: counts per column + local indices."""

    counts: np.ndarray
    indices: np.ndarray

    def columns(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        cursor = 0
        for count in self.counts:
            count = int(count)
            out.append(self.indices[cursor : cursor + count].astype(np.int64))
            cursor += count
        return out


def _split_blocks(
    polarity: Polarity, n_out: int, n_blocks: int, block_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each block's per-column counts and block-local indices, in order."""
    block_of = polarity.rows // block_size
    split = []
    for b in range(n_blocks):
        mask = block_of == b
        split.append((
            np.bincount(polarity.columns[mask], minlength=n_out),
            polarity.rows[mask] - b * block_size,
        ))
    return split


class BlockEncoding(SparseEncoding):
    """Per-block mixed encodings with guaranteed 8-bit indices."""

    format_name = "block"

    def __init__(self, n_in: int, n_out: int, block_size: int,
                 pos_blocks: tuple[BlockPolarity, ...],
                 neg_blocks: tuple[BlockPolarity, ...]) -> None:
        self._n_in = n_in
        self._n_out = n_out
        self.block_size = block_size
        self.pos_blocks = pos_blocks
        self.neg_blocks = neg_blocks

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, *, block_size: int = MAX_BLOCK_SIZE,
        **options,
    ) -> "BlockEncoding":
        if options:
            raise TypeError(f"unexpected options {sorted(options)}")
        if not 1 <= block_size <= MAX_BLOCK_SIZE:
            raise EncodingError(
                f"block_size must be in [1, {MAX_BLOCK_SIZE}], "
                f"got {block_size}"
            )
        n_in, n_out, pos, neg = split_polarities(matrix)
        n_blocks = -(-n_in // block_size)  # ceil division
        pos_split, neg_split = (
            _split_blocks(polarity, n_out, n_blocks, block_size)
            for polarity in (pos, neg)
        )
        # The runtime walks all blocks' count arrays with one fixed-width
        # loop, so every block takes the widest count width used.
        count_width = width_bytes_for(
            max(int(counts.max()) for counts, _ in pos_split + neg_split)
        )

        def pack(split) -> tuple[BlockPolarity, ...]:
            return tuple(
                BlockPolarity(
                    counts=array_with_width(counts, count_width),
                    indices=array_with_width(local, 1),  # 8-bit by design
                )
                for counts, local in split
            )

        return cls(
            n_in=n_in,
            n_out=n_out,
            block_size=block_size,
            pos_blocks=pack(pos_split),
            neg_blocks=pack(neg_split),
        )

    @property
    def n_blocks(self) -> int:
        return len(self.pos_blocks)

    def to_matrix(self) -> np.ndarray:
        matrix = np.zeros((self._n_in, self._n_out), dtype=np.int8)
        for b, (pos, neg) in enumerate(zip(self.pos_blocks, self.neg_blocks)):
            base = b * self.block_size
            for j, col in enumerate(pos.columns()):
                matrix[base + col, j] = 1
            for j, col in enumerate(neg.columns()):
                matrix[base + col, j] = -1
        return matrix

    def arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for b, block in enumerate(self.pos_blocks):
            out[f"b{b}_pos_counts"] = block.counts
            out[f"b{b}_pos_indices"] = block.indices
        for b, block in enumerate(self.neg_blocks):
            out[f"b{b}_neg_counts"] = block.counts
            out[f"b{b}_neg_indices"] = block.indices
        return out

    @property
    def n_in(self) -> int:
        return self._n_in

    @property
    def n_out(self) -> int:
        return self._n_out

    @property
    def nnz(self) -> int:
        return sum(len(b.indices) for b in self.pos_blocks) + sum(
            len(b.indices) for b in self.neg_blocks
        )

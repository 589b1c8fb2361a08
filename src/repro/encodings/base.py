"""Shared machinery for the four sparse-connectivity encodings of §4.2.

A Neuro-C layer's connectivity is a ternary adjacency matrix
``A ∈ {-1, 0, +1}^(n_in × n_out)`` (rows = input neurons, columns = output
neurons).  Every encoding stores, for each output neuron, the indices of its
non-zero input connections, *split into two disjoint index sets by polarity*
(+1 and -1) so the runtime kernel needs no per-connection sign decode: it
first accumulates all positive contributions, then all negative ones.

Storage width selection is central to the paper's Figure 5b: an array is
stored with 8-bit elements iff every value it contains fits in 8 bits,
otherwise the whole array falls back to 16 bits.  Per-element variable-width
tricks are deliberately excluded — they would reintroduce the decode
branches the design exists to avoid (§4.1 "Key insight").  Each polarity's
arrays take their own widths.

Every format derives its arrays in a few NumPy passes from one flat split
(:func:`split_polarities`).  Their bytes must not change: flash sizes, the
EXPERIMENTS.md figures, the C export, firmware images and cached search
results are built from them (pinned in ``tests/encodings/test_bytes.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from repro.errors import EncodingError


def validate_ternary(matrix: np.ndarray) -> np.ndarray:
    """Check that ``matrix`` is 2-D ternary; return it as ``int8``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise EncodingError(
            f"adjacency matrix must be 2-D, got shape {matrix.shape}"
        )
    if matrix.size == 0:
        raise EncodingError("adjacency matrix must be non-empty")
    ternary = (matrix == -1) | (matrix == 0) | (matrix == 1)
    if not ternary.all():
        bad = np.unique(matrix[~ternary])
        raise EncodingError(f"matrix contains non-ternary values {bad!r}")
    return matrix.astype(np.int8)


class Polarity(NamedTuple):
    """One sign's connections, flat and in column-major order."""

    columns: np.ndarray  # output column of each connection, non-decreasing
    rows: np.ndarray     # its input row, ascending within each column
    counts: np.ndarray   # connections per output column (length n_out)


def split_polarities(
    matrix: np.ndarray,
) -> tuple[int, int, Polarity, Polarity]:
    """Validate ``matrix``; return ``(n_in, n_out, pos, neg)``.

    ``np.nonzero`` on the transposed sign mask lists every connection
    column by column with rows ascending, which is the order every
    format stores its indices in.
    """
    matrix = validate_ternary(matrix)
    n_in, n_out = matrix.shape

    def polarity(sign: int) -> Polarity:
        columns, rows = np.nonzero(matrix.T == sign)
        return Polarity(columns, rows, np.bincount(columns, minlength=n_out))

    return n_in, n_out, polarity(1), polarity(-1)


def width_bytes_for(max_value: int) -> int:
    """Smallest of the kernel-supported element widths (1 or 2 bytes).

    Width is a whole-array property: one oversized value promotes the entire
    array, because the traversal loop uses a fixed load width.
    """
    if max_value < 0:
        raise EncodingError(f"width query for negative value {max_value}")
    if max_value <= 0xFF:
        return 1
    if max_value <= 0xFFFF:
        return 2
    raise EncodingError(
        f"value {max_value} exceeds 16-bit storage; "
        "no Neuro-C layer should need 32-bit indices"
    )


def array_with_width(values: np.ndarray, width: int) -> np.ndarray:
    """Pack integer ``values`` into an unsigned array of ``width``
    bytes/element."""
    dtype = {1: np.uint8, 2: np.uint16}[width]
    if values.size and int(values.max()) >= (1 << (8 * width)):
        raise EncodingError(
            f"value {int(values.max())} does not fit a {width}-byte element"
        )
    if values.size and int(values.min()) < 0:
        raise EncodingError("encoded index arrays must be non-negative")
    return values.astype(dtype)


def narrowest_array(values: np.ndarray) -> np.ndarray:
    """Pack non-negative ``values`` at the narrowest width holding them."""
    width = width_bytes_for(int(values.max(initial=0)))
    return array_with_width(values, width)


class SparseEncoding(ABC):
    """Interface all four formats implement.

    Concrete encodings are immutable containers of numpy arrays, plus the
    metadata the kernel generator needs (widths, block size, ...).
    """

    #: Kernel-selector name, e.g. ``"csc"`` (see ``SPARSE_FORMATS``).
    format_name: str = ""

    @classmethod
    @abstractmethod
    def from_matrix(cls, matrix: np.ndarray, **options) -> "SparseEncoding":
        """Encode a ternary adjacency matrix."""

    @abstractmethod
    def to_matrix(self) -> np.ndarray:
        """Decode back to the original ternary matrix (lossless)."""

    @abstractmethod
    def arrays(self) -> dict[str, np.ndarray]:
        """All storage arrays, keyed by a stable name, in placement order."""

    def size_bytes(self) -> int:
        """Total connectivity storage (what §4.2 charges to flash)."""
        return sum(a.nbytes for a in self.arrays().values())

    def size_breakdown(self) -> dict[str, int]:
        """Bytes per storage array (for Figure 5b analysis)."""
        return {name: a.nbytes for name, a in self.arrays().items()}

    @property
    @abstractmethod
    def n_in(self) -> int: ...

    @property
    @abstractmethod
    def n_out(self) -> int: ...

    @property
    @abstractmethod
    def nnz(self) -> int: ...

"""The four sparse-connectivity encodings of §4.2: csc, delta, mixed and
block, in the paper's presentation order.

Each class names itself in ``format_name``; the layer kernels select
one by that name from ``repro.kernels.codegen_sparse.SPARSE_FORMATS``.
"""

from repro.encodings.base import (
    SparseEncoding,
    validate_ternary,
    width_bytes_for,
)
from repro.encodings.csc import CSCEncoding
from repro.encodings.delta import DeltaEncoding
from repro.encodings.mixed import MixedEncoding
from repro.encodings.block import MAX_BLOCK_SIZE, BlockEncoding
from repro.encodings.describe import describe_encodings, toy_matrix

__all__ = [
    "BlockEncoding",
    "CSCEncoding",
    "DeltaEncoding",
    "MAX_BLOCK_SIZE",
    "MixedEncoding",
    "describe_encodings",
    "toy_matrix",
    "SparseEncoding",
    "validate_ternary",
    "width_bytes_for",
]

"""The four sparse-connectivity encodings of §4.2.

Importing this package registers all formats; select one by name via
:func:`get_encoding` or enumerate them with :func:`encoding_names`.
Registration order matches the paper's presentation order: csc, delta,
mixed, block.
"""

from repro.encodings.base import (
    SparseEncoding,
    encoding_names,
    get_encoding,
    register_encoding,
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
    "encoding_names",
    "get_encoding",
    "register_encoding",
    "validate_ternary",
    "width_bytes_for",
]

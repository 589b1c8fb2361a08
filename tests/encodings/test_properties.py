"""Hypothesis property tests over arbitrary ternary matrices."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encodings import (
    BlockEncoding,
    CSCEncoding,
    DeltaEncoding,
    MixedEncoding,
)
from repro.encodings.base import split_polarities

#: The four encoding classes by format name, in the paper's order.
ENCODINGS = {
    cls.format_name: cls
    for cls in (CSCEncoding, DeltaEncoding, MixedEncoding, BlockEncoding)
}


def ternary_matrices(max_in=80, max_out=12):
    shapes = st.tuples(
        st.integers(1, max_in), st.integers(1, max_out)
    )
    return shapes.flatmap(
        lambda shape: hnp.arrays(
            np.int8, shape, elements=st.sampled_from([-1, 0, 1])
        )
    )


@settings(max_examples=40, deadline=None)
@given(matrix=ternary_matrices())
def test_all_formats_roundtrip_losslessly(matrix):
    for name in ENCODINGS:
        encoding = ENCODINGS[name].from_matrix(matrix)
        assert np.array_equal(encoding.to_matrix(), matrix), name


@settings(max_examples=40, deadline=None)
@given(matrix=ternary_matrices())
def test_nnz_invariant_across_formats(matrix):
    expected = int(np.count_nonzero(matrix))
    for name in ENCODINGS:
        assert ENCODINGS[name].from_matrix(matrix).nnz == expected


@settings(max_examples=40, deadline=None)
@given(matrix=ternary_matrices())
def test_storage_at_least_one_byte_per_connection(matrix):
    # No format can store a connection in less than one index byte.
    nnz = int(np.count_nonzero(matrix))
    for name in ENCODINGS:
        assert ENCODINGS[name].from_matrix(matrix).size_bytes() >= nnz


@settings(max_examples=40, deadline=None)
@given(matrix=ternary_matrices(), stride=st.sampled_from([1, 2]))
def test_delta_roundtrips_for_both_strides(matrix, stride):
    encoding = ENCODINGS["delta"].from_matrix(matrix, stride=stride)
    assert np.array_equal(encoding.to_matrix(), matrix)


@settings(max_examples=40, deadline=None)
@given(matrix=ternary_matrices())
def test_polarity_split_partitions_the_matrix(matrix):
    n_in, n_out, pos, neg = split_polarities(matrix)
    assert (n_in, n_out) == matrix.shape
    rebuilt = np.zeros(matrix.shape, dtype=np.int8)
    for sign, polarity in ((1, pos), (-1, neg)):
        assert np.array_equal(
            polarity.counts, np.bincount(polarity.columns, minlength=n_out)
        )
        # Column-major: columns never decrease, and rows strictly ascend
        # within a column.
        steps = np.diff(polarity.columns)
        assert (steps >= 0).all()
        assert (np.diff(polarity.rows)[steps == 0] > 0).all()
        rebuilt[polarity.rows, polarity.columns] = sign
    cells = [set(zip(p.rows.tolist(), p.columns.tolist())) for p in (pos, neg)]
    assert not cells[0] & cells[1]
    assert np.array_equal(rebuilt, matrix)


def skewed_matrices(max_in=600, max_out=6):
    """Matrices up to ``max_in`` inputs whose density and sign balance
    vary, so some columns hold more than 255 connections of one sign."""

    def build(n_in, n_out, density, pos_share, seed):
        p = [density * (1 - pos_share), 1 - density, density * pos_share]
        return np.random.default_rng(seed).choice(
            np.array([-1, 0, 1], dtype=np.int8), size=(n_in, n_out), p=p
        )

    return st.builds(
        build,
        st.integers(1, max_in), st.integers(1, max_out),
        st.sampled_from([0.0, 0.004, 0.02, 0.2, 0.6, 0.95, 1.0]),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        st.integers(0, 2**32 - 1),
    )


def unsigned(fits_a_byte):
    return np.dtype(np.uint8 if fits_a_byte else np.uint16)


@settings(max_examples=60, deadline=None)
@example(  # full 256-row blocks of both signs: every count is 16-bit
    matrix=np.array([[1, -1, 0]] * 300, dtype=np.int8), stride=1,
    block_size=256,
)
@example(  # first rows 140-142 fit a byte at stride 1 but not at stride 2
    matrix=-np.eye(300, 3, k=-140, dtype=np.int8), stride=2, block_size=100,
)
@given(
    matrix=skewed_matrices(),
    stride=st.sampled_from([1, 2]),
    block_size=st.integers(1, 256),
)
def test_every_array_takes_the_width_rule_of_its_polarity(
    matrix, stride, block_size
):
    n_in = matrix.shape[0]
    csc = ENCODINGS["csc"].from_matrix(matrix)
    mixed = ENCODINGS["mixed"].from_matrix(matrix)
    delta = ENCODINGS["delta"].from_matrix(matrix, stride=stride)
    for sign, name in ((1, "pos"), (-1, "neg")):
        mask = matrix == sign
        counts = mask.sum(axis=0)
        prescaled = [
            np.diff(np.flatnonzero(column), prepend=0) * stride
            for column in mask.T
        ]
        largest = max(int(v.max(initial=0)) for v in prescaled)
        arrays = {
            "csc indices": (getattr(csc, name).indices, n_in <= 256),
            "csc pointers": (getattr(csc, name).pointers,
                             int(counts.sum()) <= 255),
            "mixed indices": (getattr(mixed, name).indices, n_in <= 256),
            "mixed counts": (getattr(mixed, name).counts,
                             int(counts.max()) <= 255),
            "delta counts": (getattr(delta, name).counts,
                             int(counts.max()) <= 255),
            "delta stream": (getattr(delta, name).stream, largest <= 255),
        }
        for label, (array, fits_a_byte) in arrays.items():
            assert array.dtype == unsigned(fits_a_byte), (name, label)

    block = ENCODINGS["block"].from_matrix(matrix, block_size=block_size)
    largest_block_count = max(
        int(np.count_nonzero(matrix[lo:lo + block_size] == sign, axis=0).max())
        for lo in range(0, n_in, block_size)
        for sign in (1, -1)
    )
    for polarity in block.pos_blocks + block.neg_blocks:
        assert polarity.indices.dtype == np.uint8
        assert polarity.counts.dtype == unsigned(largest_block_count <= 255)


@settings(max_examples=30, deadline=None)
@given(
    matrix=ternary_matrices(max_in=300),
    block_size=st.integers(1, 256),
)
def test_block_indices_always_fit_a_byte(matrix, block_size):
    encoding = ENCODINGS["block"].from_matrix(
        matrix, block_size=block_size
    )
    for block in encoding.pos_blocks + encoding.neg_blocks:
        assert block.indices.dtype == np.uint8
        if len(block.indices):
            assert int(block.indices.max()) < block_size
    assert np.array_equal(encoding.to_matrix(), matrix)

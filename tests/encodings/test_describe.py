"""The Figure-3 rendering helper."""

import numpy as np

from repro.encodings.describe import describe_encodings, toy_matrix


def test_toy_matrix_exercises_the_width_mechanism():
    matrix = toy_matrix()
    assert matrix.shape[0] > 256          # forces 16-bit absolute indices
    assert set(np.unique(matrix)) <= {-1, 0, 1}
    assert np.count_nonzero(matrix) >= 40  # enough for block to win


def test_description_lists_all_arrays_and_ratios():
    text = describe_encodings(toy_matrix(), block_size=256)
    assert "csc (baseline): " in text
    assert "x1.00 of the CSC baseline" in text
    for array_name in ("pos_pointers", "pos_stream", "pos_indices",
                       "b0_pos_counts"):
        assert array_name in text


def test_sizes_in_text_match_encoding_accounting():
    from repro.encodings import (
        BlockEncoding,
        CSCEncoding,
        DeltaEncoding,
        MixedEncoding,
    )
    matrix = toy_matrix()
    text = describe_encodings(matrix, block_size=256)
    stated = [
        int(line.split(":")[1].split("B")[0])
        for line in text.splitlines()
        if "B total" in line
    ]
    actual = [
        CSCEncoding.from_matrix(matrix).size_bytes(),
        DeltaEncoding.from_matrix(matrix).size_bytes(),
        MixedEncoding.from_matrix(matrix).size_bytes(),
        BlockEncoding.from_matrix(matrix, block_size=256).size_bytes(),
    ]
    assert stated == actual


def test_works_on_arbitrary_small_matrices(rng):
    matrix = rng.choice([-1, 0, 1], (12, 3)).astype(np.int8)
    text = describe_encodings(matrix, block_size=8)
    assert f"nnz={int(np.count_nonzero(matrix))}" in text

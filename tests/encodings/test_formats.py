"""Per-format unit tests: roundtrips, width selection, sizes, edge cases."""

import numpy as np
import pytest

from repro.encodings import (
    BlockEncoding,
    CSCEncoding,
    DeltaEncoding,
    MixedEncoding,
    validate_ternary,
    width_bytes_for,
)
from repro.errors import ConfigurationError, EncodingError
from repro.kernels.codegen_sparse import SPARSE_FORMATS, encode_for_kernel
from repro.kernels.spec import make_neuroc_spec

ALL_FORMATS = ("csc", "delta", "mixed", "block")
#: The four encoding classes by format name, in the paper's order.
ENCODINGS = {
    cls.format_name: cls
    for cls in (CSCEncoding, DeltaEncoding, MixedEncoding, BlockEncoding)
}


def ternary(rng, n_in, n_out, density=0.2):
    return rng.choice(
        [-1, 0, 1], size=(n_in, n_out),
        p=[density / 2, 1 - density, density / 2],
    ).astype(np.int8)


@pytest.fixture()
def matrix(rng):
    return ternary(rng, 50, 12)


class TestBase:
    def test_validate_rejects_non_ternary(self):
        with pytest.raises(EncodingError, match="non-ternary"):
            validate_ternary(np.array([[0, 2]]))

    def test_validate_rejects_wrong_rank(self):
        with pytest.raises(EncodingError, match="2-D"):
            validate_ternary(np.array([1, 0, -1]))

    def test_validate_rejects_empty(self):
        with pytest.raises(EncodingError):
            validate_ternary(np.zeros((0, 3)))

    def test_width_selection(self):
        assert width_bytes_for(0) == 1
        assert width_bytes_for(255) == 1
        assert width_bytes_for(256) == 2
        assert width_bytes_for(65535) == 2
        with pytest.raises(EncodingError):
            width_bytes_for(65536)
        with pytest.raises(EncodingError):
            width_bytes_for(-1)

    def test_registry_lists_paper_order(self):
        """The kernels' one format table names each class, in order."""
        assert SPARSE_FORMATS == ALL_FORMATS == tuple(ENCODINGS)

    def test_unknown_format(self):
        spec = make_neuroc_spec(
            np.eye(3), np.zeros(3, np.int32), None, act_out_width=4
        )
        with pytest.raises(ConfigurationError, match="unknown"):
            encode_for_kernel(spec, "csr")


@pytest.mark.parametrize("name", ALL_FORMATS)
class TestRoundtrip:
    def encode(self, name, matrix, **kw):
        return ENCODINGS[name].from_matrix(matrix, **kw)

    def test_roundtrip(self, name, matrix):
        enc = self.encode(name, matrix)
        assert np.array_equal(enc.to_matrix(), matrix)

    def test_nnz_matches(self, name, matrix):
        enc = self.encode(name, matrix)
        assert enc.nnz == int(np.count_nonzero(matrix))

    def test_all_zero_matrix(self, name):
        matrix = np.zeros((10, 4), dtype=np.int8)
        enc = self.encode(name, matrix)
        assert enc.nnz == 0
        assert np.array_equal(enc.to_matrix(), matrix)

    def test_fully_dense_matrix(self, name):
        matrix = np.ones((7, 3), dtype=np.int8)
        matrix[::2] = -1
        enc = self.encode(name, matrix)
        assert np.array_equal(enc.to_matrix(), matrix)

    def test_single_cell(self, name):
        matrix = np.array([[-1]], dtype=np.int8)
        enc = self.encode(name, matrix)
        assert np.array_equal(enc.to_matrix(), matrix)

    def test_size_bytes_equals_array_sum(self, name, matrix):
        enc = self.encode(name, matrix)
        assert enc.size_bytes() == sum(
            a.nbytes for a in enc.arrays().values()
        )
        assert enc.size_bytes() == sum(enc.size_breakdown().values())


class TestCSC:
    def test_small_inputs_use_8bit_indices(self, rng):
        enc = CSCEncoding.from_matrix(ternary(rng, 200, 8))
        assert enc.index_width == 1

    def test_large_inputs_use_16bit_indices(self, rng):
        enc = CSCEncoding.from_matrix(ternary(rng, 300, 8))
        assert enc.index_width == 2

    def test_pointer_width_grows_with_nnz(self, rng):
        dense = np.ones((100, 10), dtype=np.int8)  # nnz=1000 per polarity? no: all +1
        enc = CSCEncoding.from_matrix(dense)
        assert enc.pos.pointers.itemsize == 2  # positions up to 1000

    def test_column_extraction(self):
        matrix = np.zeros((6, 2), dtype=np.int8)
        matrix[[1, 4], 0] = 1
        matrix[2, 1] = -1
        enc = CSCEncoding.from_matrix(matrix)
        assert list(enc.pos.column(0)) == [1, 4]
        assert list(enc.neg.column(1)) == [2]
        assert list(enc.neg.column(0)) == []


class TestDelta:
    def test_stream_stores_first_absolute_then_gaps(self):
        matrix = np.zeros((20, 1), dtype=np.int8)
        matrix[[3, 7, 15], 0] = 1
        enc = DeltaEncoding.from_matrix(matrix, stride=1)
        assert list(enc.pos.stream) == [3, 4, 8]
        assert list(enc.pos.counts) == [3]

    def test_prescaled_stride(self):
        matrix = np.zeros((20, 1), dtype=np.int8)
        matrix[[3, 7], 0] = 1
        enc = DeltaEncoding.from_matrix(matrix, stride=2)
        assert list(enc.pos.stream) == [6, 8]
        assert np.array_equal(enc.to_matrix(), matrix)

    def test_large_gap_promotes_whole_stream(self):
        matrix = np.zeros((600, 2), dtype=np.int8)
        matrix[[0, 1], 0] = 1
        matrix[[0, 500], 1] = 1   # gap 500 > 255
        enc = DeltaEncoding.from_matrix(matrix)
        assert enc.stream_width == 2

    def test_small_gaps_stay_8bit(self):
        matrix = np.zeros((600, 1), dtype=np.int8)
        matrix[[100, 150, 200], 0] = 1
        enc = DeltaEncoding.from_matrix(matrix)
        assert enc.pos.stream.itemsize == 1

    def test_invalid_stride(self):
        with pytest.raises(EncodingError, match="stride"):
            DeltaEncoding.from_matrix(np.array([[1]], dtype=np.int8),
                                      stride=3)


class TestMixed:
    def test_counts_and_absolute_indices(self):
        matrix = np.zeros((10, 2), dtype=np.int8)
        matrix[[2, 5], 0] = 1
        matrix[7, 1] = 1
        enc = MixedEncoding.from_matrix(matrix)
        assert list(enc.pos.counts) == [2, 1]
        assert list(enc.pos.indices) == [2, 5, 7]


class TestBlock:
    def test_indices_always_8bit(self, rng):
        enc = BlockEncoding.from_matrix(ternary(rng, 1000, 6))
        for block in enc.pos_blocks + enc.neg_blocks:
            assert block.indices.itemsize == 1

    def test_block_count(self, rng):
        enc = BlockEncoding.from_matrix(ternary(rng, 700, 4),
                                        block_size=256)
        assert enc.n_blocks == 3

    def test_block_local_indices_below_block_size(self, rng):
        enc = BlockEncoding.from_matrix(ternary(rng, 500, 6), block_size=64)
        for block in enc.pos_blocks + enc.neg_blocks:
            if len(block.indices):
                assert int(block.indices.max()) < 64

    def test_count_widths_uniform_across_blocks(self, rng):
        enc = BlockEncoding.from_matrix(ternary(rng, 520, 5), block_size=128)
        widths = {
            b.counts.itemsize for b in enc.pos_blocks + enc.neg_blocks
        }
        assert len(widths) == 1

    def test_invalid_block_size(self, rng):
        with pytest.raises(EncodingError, match="block_size"):
            BlockEncoding.from_matrix(ternary(rng, 10, 2), block_size=0)
        with pytest.raises(EncodingError, match="block_size"):
            BlockEncoding.from_matrix(ternary(rng, 10, 2), block_size=512)

    def test_smallest_format_on_wide_inputs(self, rng):
        # Figure 5b's setting: wide input, 16-bit activations (delta
        # offsets prescaled by stride 2).  Block's guaranteed 8-bit
        # indices make it the most compact; CSC's absolute 16-bit
        # indices plus pointers make it the largest.
        matrix = ternary(rng, 784, 32, density=0.1)
        sizes = {
            name: ENCODINGS[name].from_matrix(
                matrix, **({"stride": 2} if name == "delta" else {})
            ).size_bytes()
            for name in ALL_FORMATS
        }
        assert sizes["block"] == min(sizes.values())
        assert sizes["csc"] == max(sizes.values())

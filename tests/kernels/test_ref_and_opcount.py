"""Reference-kernel semantics and OpCount arithmetic."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, QuantizationError
from repro.kernels.opcount import OpCount, countdown_loop
from repro.kernels.ref import (
    conv_macc_count,
    fc_macc_count,
    im2col,
    layer_forward,
    model_forward,
    model_predict,
)
from repro.kernels.spec import (
    LayerKernelSpec,
    make_dense_spec,
    make_neuroc_spec,
)
from repro.mcu.cpu import CycleCosts


class TestSpecValidation:
    def test_requires_exactly_one_matrix(self):
        with pytest.raises(Exception):
            LayerKernelSpec(
                n_in=2, n_out=2, act_in_width=1, act_out_width=1,
                bias=np.zeros(2, np.int32), relu=True, mult=1,
            )

    def test_matrix_must_be_int8(self):
        with pytest.raises(ConfigurationError, match="int8"):
            LayerKernelSpec(
                n_in=2, n_out=2, act_in_width=1, act_out_width=1,
                bias=np.zeros(2, np.int32), relu=True, mult=1,
                adjacency=np.ones((2, 2), dtype=np.int16),
            )

    def test_raw_output_requires_width_4(self):
        adjacency = np.ones((2, 2), dtype=np.int8)
        with pytest.raises(Exception):
            make_neuroc_spec(adjacency, np.zeros(2, np.int32), mult=None,
                             act_out_width=1)

    def test_requant_output_must_be_narrow(self):
        adjacency = np.ones((2, 2), dtype=np.int8)
        with pytest.raises(Exception):
            make_neuroc_spec(adjacency, np.zeros(2, np.int32), mult=5,
                             act_out_width=4)


class TestLayerForward:
    def test_equation_one_order(self):
        # out = ((acc * mult) >> shift) + bias, then ReLU.
        adjacency = np.array([[1], [1]], dtype=np.int8)
        spec = make_neuroc_spec(
            adjacency, bias=np.array([-5], dtype=np.int32),
            mult=np.array([4], dtype=np.int16), shift=1,
            act_in_width=1, act_out_width=2, relu=True,
        )
        out = layer_forward(spec, np.array([3, 4]))   # acc=7
        assert out[0] == max((7 * 4 >> 1) - 5, 0)     # 14 - 5 = 9

    def test_negative_mult_supported(self):
        # w_j < 0 must work (the Eq.-1 restructure's whole point).
        adjacency = np.array([[1]], dtype=np.int8)
        spec = make_neuroc_spec(
            adjacency, bias=np.array([100], dtype=np.int32),
            mult=np.array([-8], dtype=np.int16), shift=0,
            act_in_width=1, act_out_width=2, relu=True,
        )
        assert layer_forward(spec, np.array([5]))[0] == 60  # -40+100

    def test_floor_shift_for_negative_products(self):
        adjacency = np.array([[1]], dtype=np.int8)
        spec = make_neuroc_spec(
            adjacency, bias=np.array([0], dtype=np.int32),
            mult=np.array([1], dtype=np.int16), shift=1,
            act_in_width=1, act_out_width=2, relu=False,
        )
        assert layer_forward(spec, np.array([-3]))[0] == -2  # floor(-1.5)

    def test_saturation_clamps_relu_outputs(self):
        adjacency = np.ones((4, 1), dtype=np.int8)
        spec = make_neuroc_spec(
            adjacency, bias=np.array([0], dtype=np.int32),
            mult=np.array([100], dtype=np.int16), shift=0,
            act_in_width=1, act_out_width=1, relu=True,
        )
        out = layer_forward(spec, np.array([100, 100, 100, 100]))
        assert out[0] == 127  # saturated, not wrapped

    def test_out_of_range_input_rejected(self):
        adjacency = np.ones((1, 1), dtype=np.int8)
        spec = make_neuroc_spec(adjacency, np.zeros(1, np.int32),
                                mult=None, act_out_width=4, relu=False)
        with pytest.raises(QuantizationError):
            layer_forward(spec, np.array([300]))  # beyond int8

    def test_int32_overflow_detected(self):
        weights = np.full((1, 1), 127, dtype=np.int8)
        spec = make_dense_spec(
            weights, np.array([2**31 - 10], dtype=np.int32), mult=None,
            act_out_width=4, relu=False,
        )
        with pytest.raises(QuantizationError, match="int32"):
            layer_forward(spec, np.array([127]))

    def test_batch_and_single_row_agree(self, rng):
        adjacency = rng.choice([-1, 0, 1], (10, 3)).astype(np.int8)
        spec = make_neuroc_spec(
            adjacency, rng.integers(-10, 10, 3).astype(np.int32),
            mult=None, act_out_width=4, relu=False,
        )
        x = rng.integers(-20, 20, (4, 10))
        batch = model_forward([spec], x)
        rows = np.stack([layer_forward(spec, row) for row in x])
        assert np.array_equal(batch, rows)

    def test_model_predict_argmax(self, rng):
        adjacency = np.eye(3, dtype=np.int8)
        spec = make_neuroc_spec(adjacency, np.zeros(3, np.int32),
                                mult=None, act_out_width=4, relu=False)
        assert model_predict([spec], np.array([5, 9, 1])) == 1


class TestIm2col:
    def test_matches_manual_window(self):
        x = np.arange(16)
        columns = im2col(x, 4, 2)
        assert columns.shape == (4, 9)
        # Output position (0, 0): rows 0-1, cols 0-1.
        assert list(columns[:, 0]) == [0, 1, 4, 5]
        # Output position (2, 2): rows 2-3, cols 2-3.
        assert list(columns[:, 8]) == [10, 11, 14, 15]

    def test_shape_validation(self):
        with pytest.raises(QuantizationError):
            im2col(np.zeros(10), 4, 2)
        with pytest.raises(QuantizationError):
            im2col(np.zeros(16), 4, 5)

    def test_macc_formulas(self):
        # Eq. 7 and Eq. 8.
        assert conv_macc_count(k=8, c=1, s=3, m=14) == 8 * 9 * 196
        assert fc_macc_count(256, 72) == 256 * 72


class TestOpCount:
    def test_addition_and_scaling(self):
        a = OpCount.block(alu=2, load=1)
        b = OpCount.block(store=1, branch_taken=3)
        total = a + b
        assert total.alu == 2 and total.load == 1 and total.store == 1
        assert a.scaled(4).alu == 8
        assert a.scaled(4).halt == 0

    def test_cycles_pricing(self):
        count = OpCount(alu=3, mul=2, load=1, store=1,
                        branch_taken=1, branch_not_taken=1, halt=1)
        costs = CycleCosts()
        expected = 3 + 2 + 2 + 2 + 3 + 1 + 1
        assert count.cycles(costs) == expected

    def test_fetch_extra_pricing(self):
        count = OpCount(alu=5, halt=1)
        assert count.cycles(CycleCosts(fetch_extra=2)) == (
            5 + 1 + 2 * count.instructions
        )

    def test_countdown_loop_branch_accounting(self):
        body = OpCount.block(load=1)
        loop = countdown_loop(body, 5)
        assert loop.branch_taken == 4
        assert loop.branch_not_taken == 1
        assert loop.alu == 5  # the SUBSIs
        assert loop.load == 5

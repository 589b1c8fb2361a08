"""Fixed-point helpers: multiplier quantization and requantize."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quantize.fixed_point import (
    quantize_multiplier,
    quantize_multipliers_shared_shift,
    requantize,
)


class TestQuantizeMultiplier:
    @settings(max_examples=100, deadline=None)
    @given(scale=st.floats(1e-6, 1e4))
    def test_relative_error_small(self, scale):
        mult, shift = quantize_multiplier(scale)
        approx = mult / (1 << shift)
        assert approx == pytest.approx(scale, rel=5e-4) or mult == 1

    def test_mult_respects_bit_budget(self):
        for bits in (4, 8, 15):
            mult, _ = quantize_multiplier(0.37, mult_bits=bits)
            assert mult < (1 << bits)

    def test_nonpositive_scale_raises(self):
        with pytest.raises(QuantizationError):
            quantize_multiplier(0.0)
        with pytest.raises(QuantizationError):
            quantize_multiplier(-1.0)

    def test_huge_scale_raises(self):
        with pytest.raises(QuantizationError):
            quantize_multiplier(1e30)


class TestSharedShift:
    def test_vector_shares_one_shift(self, rng):
        scales = rng.uniform(0.01, 0.5, size=20)
        mults, shift = quantize_multipliers_shared_shift(scales)
        assert mults.dtype == np.int16
        approx = mults.astype(np.float64) / (1 << shift)
        assert np.allclose(approx, scales, rtol=0.02, atol=1e-4)

    def test_tiny_scale_clamps_to_one(self):
        mults, shift = quantize_multipliers_shared_shift(
            np.array([1.0, 1e-12])
        )
        assert mults[1] == 1  # keeps the neuron alive rather than zeroing

    def test_empty_or_invalid(self):
        with pytest.raises(QuantizationError):
            quantize_multipliers_shared_shift(np.array([]))
        with pytest.raises(QuantizationError):
            quantize_multipliers_shared_shift(np.array([0.5, -0.1]))


class TestRequantize:
    def test_matches_scale_approximately(self, rng):
        acc = rng.integers(-10000, 10000, size=100)
        scale = 0.037
        mult, shift = quantize_multiplier(scale)
        out = requantize(acc, mult, shift)
        assert np.allclose(out, acc * scale, atol=1.0)

    def test_floor_semantics_for_negatives(self):
        # Arithmetic shift rounds toward -inf, exactly like the kernel.
        assert requantize(np.array([-3]), 1, 1)[0] == -2  # floor(-1.5)

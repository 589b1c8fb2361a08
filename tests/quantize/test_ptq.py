"""Post-training quantization: parity, folding rules, failure modes."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.nn.layers import (
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    Layer,
    NeuroCLayer,
    ReLULayer,
)
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.quantizers import TernaryQuantizer
from repro.nn.trainer import TrainConfig, Trainer
from repro.quantize.ptq import quantize_model

#: About a third of a fresh U(-1, 1) latent matrix ternarizes to zero.
QUANTIZER = TernaryQuantizer(0.35)


class Tanh(Layer):
    """An activation the integer kernels cannot apply."""

    def forward(self, x, training):
        return np.tanh(x)


@pytest.fixture(scope="module")
def digits():
    from repro.datasets import load
    return load("digits_like", n_train=500, n_test=200, seed=9)


def _train(model, dataset, epochs=20, lr=0.006):
    x_tr, y_tr, x_val, y_val = dataset.split_validation(seed=0)
    Trainer(model, Adam(lr), rng=np.random.default_rng(2)).fit(
        x_tr, y_tr, x_val, y_val, TrainConfig(epochs=epochs)
    )
    return x_tr


class TestAccuracyParity:
    @pytest.mark.parametrize("act_width", [1, 2])
    def test_neuroc_parity(self, digits, act_width, rng):
        model = Sequential(
            [NeuroCLayer(64, 40, rng, quantizer=QUANTIZER), ReLULayer(),
             NeuroCLayer(40, 10, rng, quantizer=QUANTIZER)]
        )
        x_tr = _train(model, digits)
        quantized = quantize_model(model, x_tr[:200], act_width=act_width)
        float_acc = model.accuracy(digits.x_test, digits.y_test)
        int_acc = quantized.accuracy(digits.x_test, digits.y_test)
        assert int_acc >= float_acc - 0.02

    def test_tnn_uses_per_layer_multiplier(self, digits, rng):
        model = Sequential(
            [NeuroCLayer(64, 40, rng, quantizer=QUANTIZER, use_scale=False),
             ReLULayer(),
             NeuroCLayer(40, 10, rng, quantizer=QUANTIZER, use_scale=False)]
        )
        x_tr = _train(model, digits)
        quantized = quantize_model(model, x_tr[:200])
        hidden = quantized.specs[0]
        assert not hidden.per_neuron_mult       # TNN: scalar multiplier
        assert isinstance(hidden.mult, int)
        final = quantized.specs[-1]
        assert final.mult is None               # raw accumulator argmax
        assert final.act_out_width == 4

    def test_neuroc_final_layer_keeps_per_neuron_mult(self, digits, rng):
        model = Sequential(
            [NeuroCLayer(64, 24, rng, quantizer=QUANTIZER), ReLULayer(),
             NeuroCLayer(24, 10, rng, quantizer=QUANTIZER)]
        )
        x_tr = _train(model, digits, epochs=10)
        quantized = quantize_model(model, x_tr[:200])
        final = quantized.specs[-1]
        assert final.per_neuron_mult            # w_j applied on-device
        assert final.act_out_width == 2


class TestFoldingRules:
    def test_batchnorm_folds_into_dense(self, digits, rng):
        model = Sequential(
            [DenseLayer(64, 24, rng), BatchNormLayer(24),
             ReLULayer(), DenseLayer(24, 10, rng)]
        )
        x_tr = _train(model, digits)
        quantized = quantize_model(model, x_tr[:200])
        assert len(quantized.specs) == 2  # BN disappeared into weights
        float_acc = model.accuracy(digits.x_test, digits.y_test)
        assert quantized.accuracy(digits.x_test, digits.y_test) >= (
            float_acc - 0.03
        )

    def test_batchnorm_on_ternary_refused(self, digits, rng):
        # §3.4: BN cannot fold into ternary weights.
        model = Sequential(
            [NeuroCLayer(64, 24, rng, quantizer=QUANTIZER), BatchNormLayer(24),
             ReLULayer(), NeuroCLayer(24, 10, rng, quantizer=QUANTIZER)]
        )
        with pytest.raises(QuantizationError, match="batch normalization"):
            quantize_model(model, digits.x_train[:64])

    def test_dropout_is_skipped(self, digits, rng):
        model = Sequential(
            [DropoutLayer(0.2, rng), DenseLayer(64, 16, rng),
             ReLULayer(), DropoutLayer(0.2, rng),
             DenseLayer(16, 10, rng)]
        )
        x_tr = _train(model, digits, epochs=8)
        quantized = quantize_model(model, x_tr[:128])
        assert len(quantized.specs) == 2

    def test_unsupported_activation_refused(self, digits, rng):
        model = Sequential(
            [DenseLayer(64, 8, rng), Tanh(), DenseLayer(8, 10, rng)]
        )
        with pytest.raises(QuantizationError, match="Tanh"):
            quantize_model(model, digits.x_train[:64])


class TestValidation:
    def test_empty_calibration_rejected(self, rng):
        model = Sequential([DenseLayer(4, 2, rng)])
        with pytest.raises(QuantizationError):
            quantize_model(model, np.zeros((0, 4), np.float32))

    def test_all_zero_calibration_rejected(self, rng):
        model = Sequential([DenseLayer(4, 2, rng)])
        with pytest.raises(QuantizationError):
            quantize_model(model, np.zeros((8, 4), np.float32))

    def test_bad_act_width(self, rng):
        model = Sequential([DenseLayer(4, 2, rng)])
        with pytest.raises(QuantizationError):
            quantize_model(model, np.ones((8, 4), np.float32), act_width=3)

    def test_quantize_input_clips_outliers(self, digits, rng):
        model = Sequential([DenseLayer(64, 10, rng)])
        x_tr = _train(model, digits, epochs=3)
        quantized = quantize_model(model, x_tr[:64])
        wild = np.full((1, 64), 100.0, dtype=np.float32)
        q = quantized.quantize_input(wild)
        lo, hi = quantized.specs[0].act_in_range()
        assert q.max() <= hi and q.min() >= lo

    def test_saturation_keeps_inference_alive_on_outliers(self, digits,
                                                          rng):
        # Inputs beyond the calibration range must saturate (not crash).
        model = Sequential(
            [NeuroCLayer(64, 16, rng, quantizer=QUANTIZER), ReLULayer(),
             NeuroCLayer(16, 10, rng, quantizer=QUANTIZER)]
        )
        x_tr = _train(model, digits, epochs=5)
        quantized = quantize_model(model, x_tr[:64] * 0.3)
        prediction = quantized.predict(np.ones((2, 64), np.float32))
        assert prediction.shape == (2,)

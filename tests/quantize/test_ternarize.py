"""Post-training ternarization of float models (the stage-2 PTQ proxy)."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.nn.layers import DenseLayer, NeuroCLayer, ReLULayer
from repro.nn.quantizers import TernaryQuantizer
from repro.nn.model import Sequential
from repro.quantize.ptq import quantize_model, ternarize_float_model


@pytest.fixture(scope="module")
def digits():
    from repro.datasets import load
    return load("digits_like", n_train=500, n_test=200, seed=9)


def _dense_model(rng):
    return Sequential(
        [DenseLayer(64, 32, rng), ReLULayer(),
         DenseLayer(32, 10, rng)],
        name="float",
    )


class TestStructure:
    def test_produces_ternary_layers(self, trained_mlp):
        ternary = ternarize_float_model(trained_mlp.model)
        layers = ternary.neuroc_layers()
        assert len(layers) == 2
        for layer in layers:
            adjacency = layer.ternary_adjacency()
            assert set(np.unique(adjacency)) <= {-1, 0, 1}
            assert layer.nnz > 0
        assert ternary.name.endswith("-ptq-ternary")

    def test_no_dead_neurons(self, trained_mlp):
        # Even at an aggressive threshold every output column keeps its
        # strongest weight — a dead neuron would zero the activation.
        ternary = ternarize_float_model(trained_mlp.model, threshold=0.97)
        for layer in ternary.neuroc_layers():
            per_column = np.abs(layer.ternary_adjacency()).sum(axis=0)
            assert (per_column > 0).all()

    def test_density_decreases_with_threshold(self, trained_mlp):
        nnz = [
            sum(
                layer.nnz for layer in ternarize_float_model(
                    trained_mlp.model, threshold=t
                ).neuroc_layers()
            )
            for t in (0.80, 0.88, 0.94)
        ]
        assert nnz[0] > nnz[1] > nnz[2]

    def test_threshold_quantile_sets_density(self, rng):
        # On untrained (roughly uniform-magnitude) weights, keeping the
        # top (1 - t) quantile lands near density 1 - t.
        model = _dense_model(rng)
        ternary = ternarize_float_model(model, threshold=0.84)
        total = 64 * 32 + 32 * 10
        kept = sum(layer.nnz for layer in ternary.neuroc_layers())
        assert kept / total == pytest.approx(0.16, abs=0.04)

    def test_supports_restrict_the_topology(self, trained_mlp, rng):
        shapes = [(64, 24), (24, 10)]
        supports = [
            rng.random(shape) < 0.2 for shape in shapes
        ]
        ternary = ternarize_float_model(
            trained_mlp.model, supports=supports
        )
        for layer, support in zip(ternary.neuroc_layers(), supports):
            outside = np.abs(layer.ternary_adjacency())[~support]
            assert outside.sum() == 0


class TestValidation:
    def test_threshold_out_of_range(self, trained_mlp):
        with pytest.raises(QuantizationError):
            ternarize_float_model(trained_mlp.model, threshold=1.0)
        with pytest.raises(QuantizationError):
            ternarize_float_model(trained_mlp.model, threshold=-0.1)

    def test_supports_length_mismatch(self, trained_mlp):
        with pytest.raises(QuantizationError):
            ternarize_float_model(
                trained_mlp.model, supports=[np.ones((64, 24), bool)]
            )

    def test_already_ternary_model_rejected(self, rng):
        model = Sequential(
            [NeuroCLayer(64, 24, rng, quantizer=TernaryQuantizer(0.35)),
             ReLULayer(),
             NeuroCLayer(24, 10, rng, quantizer=TernaryQuantizer(0.35))]
        )
        with pytest.raises(QuantizationError, match="already"):
            ternarize_float_model(model)


class TestAccuracy:
    def test_ternarized_model_exports_and_predicts(self, trained_mlp,
                                                   digits):
        ternary = ternarize_float_model(trained_mlp.model)
        quantized = quantize_model(
            ternary, digits.x_train[:200], act_width=1
        )
        accuracy = quantized.accuracy(digits.x_test, digits.y_test)
        # Far above the 10-class chance floor: ternarization keeps the
        # trained signal even without QAT.
        assert accuracy > 0.35

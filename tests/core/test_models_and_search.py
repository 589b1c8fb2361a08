"""Model builders, the shared training protocol, the TNN ablation, the MLP
random search, and the zoo."""

import numpy as np
import pytest

from repro.core.mlp import MLPConfig, build_mlp
from repro.core.neuroc import CALIBRATION_ROWS, NeuroCConfig, build_neuroc
from repro.core.search import random_mlp_configs
from repro.core.tnn import tnn_config_from
from repro.core.zoo import BEST_DEPLOYABLE, NEUROC_ZOO, zoo_entry
from repro.errors import ConfigurationError
from repro.nn.layers import (
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    NeuroCLayer,
    ReLULayer,
)
from repro.quantize.ptq import quantize_model


class TestNeuroCConfig:
    def test_layer_dims(self):
        config = NeuroCConfig(64, 10, hidden=(48, 24))
        assert config.layer_dims == (64, 48, 24, 10)

    def test_needs_hidden_layer(self):
        with pytest.raises(ConfigurationError):
            NeuroCConfig(64, 10, hidden=())

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            NeuroCConfig(64, 10, hidden=(8,), strategy="magic")

    def test_build_structure(self):
        model = build_neuroc(NeuroCConfig(64, 10, hidden=(32,)))
        kinds = [type(l).__name__ for l in model.layers]
        assert kinds == ["NeuroCLayer", "ReLULayer", "NeuroCLayer"]
        assert all(l.use_scale for l in model.neuroc_layers())

    def test_build_tnn_variant(self):
        config = tnn_config_from(NeuroCConfig(64, 10, hidden=(32,),
                                              name="base"))
        model = build_neuroc(config)
        assert all(not l.use_scale for l in model.neuroc_layers())
        assert config.name == "base-tnn"
        # Idempotent on an already-TNN config.
        again = tnn_config_from(config)
        assert not again.use_scale

    def test_threshold_controls_sparsity(self):
        sparse = build_neuroc(
            NeuroCConfig(64, 10, hidden=(32,), threshold=0.95)
        )
        dense = build_neuroc(
            NeuroCConfig(64, 10, hidden=(32,), threshold=0.5)
        )
        assert (
            sparse.neuroc_layers()[0].sparsity
            > dense.neuroc_layers()[0].sparsity
        )

    def test_fixed_strategy_builds_supported_layers(self):
        config = NeuroCConfig(
            64, 10, hidden=(16,), strategy="locality", image_shape=(8, 8)
        )
        model = build_neuroc(config)
        first = model.neuroc_layers()[0]
        assert first.support is not None
        assert first.latent is not None  # signs still learn

    def test_deterministic_under_seed(self):
        a = build_neuroc(NeuroCConfig(64, 10, hidden=(16,), seed=3))
        b = build_neuroc(NeuroCConfig(64, 10, hidden=(16,), seed=3))
        assert np.array_equal(
            a.neuroc_layers()[0].latent.value,
            b.neuroc_layers()[0].latent.value,
        )


class TestMLPConfig:
    def test_parameter_count(self):
        config = MLPConfig(64, 10, hidden=(32,))
        assert config.parameter_count == 64 * 32 + 32 + 32 * 10 + 10

    def test_build_with_all_options(self):
        config = MLPConfig(64, 10, hidden=(16, 8), dropout=0.2,
                           batch_norm=True)
        model = build_mlp(config)
        kinds = [type(l) for l in model.layers]
        assert kinds.count(DenseLayer) == 3
        assert kinds.count(BatchNormLayer) == 2
        assert kinds.count(DropoutLayer) == 2
        assert kinds.count(ReLULayer) == 2

    def test_invalid_dropout(self):
        with pytest.raises(ConfigurationError):
            MLPConfig(64, 10, hidden=(8,), dropout=1.5)


class TestTrainingProtocol:
    """Both families fit and export through one protocol."""

    @pytest.mark.parametrize("family", ["trained_mlp", "trained_neuroc"])
    def test_export_calibrates_on_the_fit_training_rows(
        self, family, request, digits_small
    ):
        trained = request.getfixturevalue(family)
        x_train = digits_small.split_validation(seed=trained.config.seed)[0]
        again = quantize_model(trained.model, x_train[:CALIBRATION_ROWS])
        x_test = digits_small.x_test
        assert again.input_scale == trained.quantized.input_scale
        assert np.array_equal(
            again.forward(x_test), trained.quantized.forward(x_test)
        )
        assert trained.quantized_accuracy == again.accuracy(
            x_test, digits_small.y_test
        )

    def test_each_family_counts_its_deployed_parameters(
        self, trained_mlp, trained_neuroc
    ):
        assert trained_mlp.parameter_count == (
            trained_mlp.config.parameter_count
        )
        assert trained_neuroc.parameter_count == (
            trained_neuroc.model.parameter_count
        )


class TestRandomSearch:
    def test_sampling_is_deterministic(self):
        a = random_mlp_configs(784, 10, count=20, seed=4)
        b = random_mlp_configs(784, 10, count=20, seed=4)
        assert [c.hidden for c in a] == [c.hidden for c in b]

    def test_configs_are_distinct(self):
        configs = random_mlp_configs(784, 10, count=30, seed=0)
        keys = {(c.hidden, c.dropout, c.batch_norm) for c in configs}
        assert len(keys) == len(configs)

    def test_space_covers_paper_axes(self):
        configs = random_mlp_configs(784, 10, count=50, seed=0)
        assert any(len(c.hidden) > 1 for c in configs)     # depth varies
        assert any(c.dropout > 0 for c in configs)
        assert any(c.batch_norm for c in configs)
        assert any(not c.batch_norm for c in configs)


class TestZoo:
    def test_entries_cover_figures(self):
        assert {"mnist-small", "mnist-medium", "mnist-large"} <= set(
            NEUROC_ZOO
        )
        assert set(BEST_DEPLOYABLE.values()) <= set(NEUROC_ZOO)

    def test_mnist_tiers_grow_monotonically(self):
        sizes = [
            sum(zoo_entry(f"mnist-{t}").config.hidden)
            for t in ("small", "medium", "large")
        ]
        assert sizes == sorted(sizes)

    def test_unknown_entry(self):
        with pytest.raises(ConfigurationError):
            zoo_entry("mnist-gigantic")

    def test_configs_are_buildable(self):
        for entry in NEUROC_ZOO.values():
            model = build_neuroc(entry.config)
            assert isinstance(model.layers[0], NeuroCLayer)

"""Conventional MLP baseline (the paper's primary comparison subject)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.neuroc import TrainedModel, export_model, fit_model
from repro.datasets.base import Dataset
from repro.errors import ConfigurationError
from repro.nn.layers import (
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    ReLULayer,
)
from repro.nn.model import Sequential
from repro.nn.trainer import History


@dataclass(frozen=True)
class MLPConfig:
    """One MLP architecture point from the §5.2 random search space:
    layer count, widths, dropout rate, batch-norm on/off."""

    n_in: int
    n_out: int
    hidden: tuple[int, ...]
    dropout: float = 0.0
    batch_norm: bool = False
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.hidden:
            raise ConfigurationError("MLP needs at least one hidden layer")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigurationError(
                f"dropout must be in [0, 1): {self.dropout}"
            )

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.n_in, *self.hidden, self.n_out)

    @property
    def parameter_count(self) -> int:
        """Dense weights + biases (what the deployed int8 model stores)."""
        total = 0
        for n_in, n_out in zip(self.layer_dims, self.layer_dims[1:]):
            total += n_in * n_out + n_out
        return total


def build_mlp(config: MLPConfig) -> Sequential:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x31]))
    layers: list = []
    dims = config.layer_dims
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        is_last = i == len(dims) - 2
        layers.append(DenseLayer(n_in, n_out, rng))
        if not is_last:
            if config.batch_norm:
                layers.append(BatchNormLayer(n_out))
            layers.append(ReLULayer())
            if config.dropout > 0.0:
                layers.append(DropoutLayer(config.dropout, rng))
    return Sequential(layers, name=config.name or "mlp")


def fit_mlp(
    config: MLPConfig,
    dataset: Dataset,
    epochs: int = 30,
    lr: float = 0.002,
) -> tuple[Sequential, History, float]:
    """Build and train one MLP configuration in float.

    Returns the model, its history and its float test accuracy.  This is
    :func:`train_mlp` without the int8 export, for callers that quantize
    the model their own way (the search's stage-2 proxy ternarizes it).
    """
    model = build_mlp(config)
    history, _, float_accuracy = fit_model(
        model, config.seed, dataset, epochs, lr
    )
    return model, history, float_accuracy


def train_mlp(
    config: MLPConfig,
    dataset: Dataset,
    epochs: int = 30,
    lr: float = 0.002,
    act_width: int = 1,
) -> TrainedModel:
    """Train, evaluate, and int8-quantize one MLP configuration."""
    model = build_mlp(config)
    fit = fit_model(model, config.seed, dataset, epochs, lr)
    return export_model(
        config, model, fit, dataset, act_width, config.parameter_count
    )

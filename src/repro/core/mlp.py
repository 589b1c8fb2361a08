"""Conventional MLP baseline (the paper's primary comparison subject)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import Dataset
from repro.errors import ConfigurationError
from repro.nn.layers import (
    ActivationLayer,
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
)
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.trainer import History, TrainConfig, Trainer
from repro.quantize.ptq import QuantizedModel, quantize_model


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
            layers.append(ActivationLayer("relu"))
            if config.dropout > 0.0:
                layers.append(DropoutLayer(config.dropout, rng))
    return Sequential(layers, name=config.name or "mlp")


@dataclass
class TrainedMLP:
    """A trained + quantized MLP baseline."""

    config: MLPConfig
    model: Sequential
    history: History
    float_accuracy: float
    quantized: QuantizedModel
    quantized_accuracy: float
    parameter_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.parameter_count = self.config.parameter_count


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
    x_train, y_train, x_val, y_val = dataset.split_validation(
        seed=config.seed
    )
    trainer = Trainer(
        model, Adam(lr), rng=np.random.default_rng(config.seed + 1)
    )
    # Same schedule as the Neuro-C pipeline, for a fair baseline.
    history = trainer.fit(
        x_train, y_train, x_val, y_val,
        TrainConfig(
            epochs=epochs,
            patience=max(10, epochs // 3),
            lr_schedule="cosine",
        ),
    )
    return model, history, model.accuracy(dataset.x_test, dataset.y_test)


def train_mlp(
    config: MLPConfig,
    dataset: Dataset,
    epochs: int = 30,
    lr: float = 0.002,
    act_width: int = 1,
    calibration_samples: int = 512,
) -> TrainedMLP:
    """Train, evaluate, and int8-quantize one MLP configuration.

    Calibration rows come from the training split :func:`fit_mlp`
    drew, redrawn from the same seed.
    """
    model, history, float_accuracy = fit_mlp(config, dataset, epochs, lr)
    x_train = dataset.split_validation(seed=config.seed)[0]
    quantized = quantize_model(
        model, x_train[:calibration_samples], act_width=act_width
    )
    quantized_accuracy = quantized.accuracy(dataset.x_test, dataset.y_test)
    return TrainedMLP(
        config=config,
        model=model,
        history=history,
        float_accuracy=float_accuracy,
        quantized=quantized,
        quantized_accuracy=quantized_accuracy,
    )

"""Neuro-C model construction and training (the paper's contribution).

A :class:`NeuroCConfig` captures one architecture point: hidden widths,
the ternary threshold that governs sparsity, and the adjacency strategy.
:func:`build_neuroc` instantiates it as a trainable model;
:func:`train_neuroc` runs the full §5.1 pipeline — fake-quantized training,
int8 post-training quantization — and returns everything downstream
experiments need.

The pipeline's two steps are the §5.2 protocol both families share:
:func:`fit_model` trains and :func:`export_model` exports, and the MLP
baseline (:mod:`repro.core.mlp`) runs through the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.adjacency import ALL_STRATEGIES, make_fixed_adjacency
from repro.datasets.base import Dataset
from repro.errors import ConfigurationError
from repro.nn.layers import NeuroCLayer, ReLULayer
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.quantizers import TernaryQuantizer
from repro.nn.trainer import History, TrainConfig, Trainer
from repro.quantize.ptq import QuantizedModel, quantize_model

if TYPE_CHECKING:  # avoids a circular import (the MLP trains through here)
    from repro.core.mlp import MLPConfig

#: Training rows that calibrate the int8 export (§5.1).
CALIBRATION_ROWS = 512


@dataclass(frozen=True)
class NeuroCConfig:
    """One Neuro-C architecture point."""

    n_in: int
    n_out: int
    hidden: tuple[int, ...]
    #: Fixed ternary threshold in (0, 1): higher → sparser adjacency.
    threshold: float = 0.82
    strategy: str = "quantization"
    use_scale: bool = True          # False → the §5.2 TNN baseline
    seed: int = 0
    image_shape: tuple[int, int] | None = None
    fixed_density: float = 0.08     # used by the fixed strategies only
    name: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in ALL_STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {ALL_STRATEGIES}"
            )
        if not self.hidden:
            raise ConfigurationError("Neuro-C needs at least one hidden "
                                     "layer")
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be non-negative, got {self.seed}"
            )

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.n_in, *self.hidden, self.n_out)


def build_neuroc(config: NeuroCConfig) -> Sequential:
    """Instantiate a trainable model from a config."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xC0]))
    layers = []
    dims = config.layer_dims
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        is_last = i == len(dims) - 2
        if config.strategy == "quantization":
            layer = NeuroCLayer(
                n_in, n_out, rng,
                quantizer=TernaryQuantizer(threshold=config.threshold),
                use_scale=config.use_scale,
            )
        else:
            # Fixed strategies pin the *support*; the ±1 signs within it
            # still learn (see NeuroCLayer.fixed_support).
            adjacency = make_fixed_adjacency(
                config.strategy, n_in, n_out, rng,
                density=config.fixed_density,
                image_shape=config.image_shape if i == 0 else None,
            )
            layer = NeuroCLayer(
                n_in, n_out, rng,
                fixed_support=adjacency != 0,
                use_scale=config.use_scale,
            )
        layers.append(layer)
        if not is_last:
            layers.append(ReLULayer())
    return Sequential(layers, name=config.name or "neuroc")


@dataclass
class TrainedModel:
    """Everything §5's experiments consume for one trained config, of
    either family."""

    config: NeuroCConfig | MLPConfig
    model: Sequential
    history: History
    float_accuracy: float
    quantized: QuantizedModel
    quantized_accuracy: float
    #: The family's deployed count: an MLP's weights plus biases, or
    #: Neuro-C's neurons plus non-zero adjacency entries.
    parameter_count: int


def fit_model(
    model: Sequential, seed: int, dataset: Dataset, epochs: int, lr: float
) -> tuple[History, np.ndarray, float]:
    """Train ``model`` in float under the one §5.2 protocol.

    Returns the history, the training rows and the float test accuracy.
    """
    x_train, y_train, x_val, y_val = dataset.split_validation(seed=seed)
    trainer = Trainer(model, Adam(lr), rng=np.random.default_rng(seed + 1))
    # Cosine annealing with generous patience: STE ternary training keeps
    # improving late, as the shrinking steps let the adjacency settle.
    # The MLP baseline trains on the same schedule, for a fair baseline.
    history = trainer.fit(
        x_train, y_train, x_val, y_val,
        TrainConfig(
            epochs=epochs,
            patience=max(10, epochs // 3),
            lr_schedule="cosine",
        ),
    )
    return history, x_train, model.accuracy(dataset.x_test, dataset.y_test)


def export_model(
    config: NeuroCConfig | MLPConfig,
    model: Sequential,
    fit: tuple[History, np.ndarray, float],
    dataset: Dataset,
    act_width: int,
    parameter_count: int,
) -> TrainedModel:
    """Int8 PTQ on the first :data:`CALIBRATION_ROWS` training rows of
    :func:`fit_model`'s ``fit``, scored on the test set."""
    history, x_train, float_accuracy = fit
    quantized = quantize_model(
        model, x_train[:CALIBRATION_ROWS], act_width=act_width
    )
    return TrainedModel(
        config=config,
        model=model,
        history=history,
        float_accuracy=float_accuracy,
        quantized=quantized,
        quantized_accuracy=quantized.accuracy(
            dataset.x_test, dataset.y_test
        ),
        parameter_count=parameter_count,
    )


def train_neuroc(
    config: NeuroCConfig,
    dataset: Dataset,
    epochs: int = 40,
    lr: float = 0.004,
    act_width: int = 1,
) -> TrainedModel:
    """Full pipeline: train → evaluate float → PTQ → evaluate int8."""
    model = build_neuroc(config)
    fit = fit_model(model, config.seed, dataset, epochs, lr)
    return export_model(
        config, model, fit, dataset, act_width, model.parameter_count
    )

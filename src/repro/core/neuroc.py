"""Neuro-C model construction and training (the paper's contribution).

A :class:`NeuroCConfig` captures one architecture point: hidden widths,
the ternary threshold that governs sparsity, and the adjacency strategy.
:func:`build_neuroc` instantiates it as a trainable model;
:func:`train_neuroc` runs the full §5.1 pipeline — fake-quantized training,
int8 post-training quantization — and returns everything downstream
experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.adjacency import ALL_STRATEGIES, make_fixed_adjacency
from repro.datasets.base import Dataset
from repro.errors import ConfigurationError
from repro.nn.layers import ActivationLayer, NeuroCLayer
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.quantizers import TernaryQuantizer
from repro.nn.trainer import History, TrainConfig, Trainer
from repro.quantize.ptq import QuantizedModel, quantize_model


@dataclass(frozen=True)
class NeuroCConfig:
    """One Neuro-C architecture point."""

    n_in: int
    n_out: int
    hidden: tuple[int, ...]
    #: Fixed ternary threshold in (0, 1): higher → sparser adjacency.
    #: "twn" adapts it to the latent weight scale instead.
    threshold: float | str = 0.82
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
            layers.append(ActivationLayer("relu"))
    return Sequential(layers, name=config.name or "neuroc")


@dataclass
class TrainedNeuroC:
    """Everything §5's experiments consume for one trained config."""

    config: NeuroCConfig
    model: Sequential
    history: History
    float_accuracy: float
    quantized: QuantizedModel
    quantized_accuracy: float
    parameter_count: int = field(init=False)

    def __post_init__(self) -> None:
        self.parameter_count = self.model.parameter_count


def train_neuroc(
    config: NeuroCConfig,
    dataset: Dataset,
    epochs: int = 40,
    lr: float = 0.004,
    act_width: int = 1,
    calibration_samples: int = 512,
) -> TrainedNeuroC:
    """Full pipeline: train → evaluate float → PTQ → evaluate int8."""
    model = build_neuroc(config)
    x_train, y_train, x_val, y_val = dataset.split_validation(
        seed=config.seed
    )
    trainer = Trainer(
        model, Adam(lr), rng=np.random.default_rng(config.seed + 1)
    )
    # Cosine annealing with generous patience: STE ternary training keeps
    # improving late, as the shrinking steps let the adjacency settle.
    history = trainer.fit(
        x_train, y_train, x_val, y_val,
        TrainConfig(
            epochs=epochs,
            patience=max(10, epochs // 3),
            lr_schedule="cosine",
        ),
    )
    float_accuracy = model.accuracy(dataset.x_test, dataset.y_test)
    quantized = quantize_model(
        model, x_train[:calibration_samples], act_width=act_width
    )
    quantized_accuracy = quantized.accuracy(dataset.x_test, dataset.y_test)
    return TrainedNeuroC(
        config=config,
        model=model,
        history=history,
        float_accuracy=float_accuracy,
        quantized=quantized,
        quantized_accuracy=quantized_accuracy,
    )

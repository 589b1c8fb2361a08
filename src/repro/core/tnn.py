"""TNN baseline (§5.2): Neuro-C with the per-neuron scale removed.

The paper derives its TNN by deleting ``w_j`` from the best Neuro-C
configuration while keeping architecture, training protocol, and inference
kernel identical — so accuracy differences isolate the contribution of the
per-neuron scale.  :func:`tnn_config_from` performs exactly that deletion.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.neuroc import NeuroCConfig, TrainedModel, train_neuroc
from repro.datasets.base import Dataset


def tnn_config_from(config: NeuroCConfig) -> NeuroCConfig:
    """The matched TNN: same architecture, ``w_j`` removed."""
    name = (config.name or "neuroc") + "-tnn"
    return replace(config, use_scale=False, name=name)


def train_tnn(
    config: NeuroCConfig,
    dataset: Dataset,
    epochs: int = 40,
    lr: float = 0.004,
    act_width: int = 1,
) -> TrainedModel:
    """Train the TNN ablation of ``config`` (which may already be a TNN
    config, or a Neuro-C config to strip)."""
    tnn_config = (
        config if not config.use_scale else tnn_config_from(config)
    )
    return train_neuroc(
        tnn_config, dataset, epochs=epochs, lr=lr, act_width=act_width
    )

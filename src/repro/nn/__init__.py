"""From-scratch NumPy training framework (the Larq substitute).

Provides quantization-aware training with straight-through-estimator
ternarization at a fixed threshold, the layer families the paper compares
(dense MLP, and Neuro-C with or without its per-neuron scale, the TNN),
batch normalization and dropout for the MLP random search, ReLU, and a
mini-batch Adam trainer on softmax cross-entropy with early stopping and
convergence detection.
"""

from repro.nn.initializers import neuron_scale_init
from repro.nn.layers import (
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    Layer,
    NeuroCLayer,
    Parameter,
    ReLULayer,
)
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.quantizers import LATENT_CLIP, TernaryQuantizer
from repro.nn.trainer import (
    CONVERGENCE_MARGIN,
    History,
    TrainConfig,
    Trainer,
    chance_accuracy,
)

__all__ = [
    "Adam",
    "BatchNormLayer",
    "CONVERGENCE_MARGIN",
    "DenseLayer",
    "DropoutLayer",
    "History",
    "LATENT_CLIP",
    "Layer",
    "NeuroCLayer",
    "Parameter",
    "ReLULayer",
    "Sequential",
    "SoftmaxCrossEntropy",
    "TernaryQuantizer",
    "TrainConfig",
    "Trainer",
    "chance_accuracy",
    "neuron_scale_init",
    "softmax",
]

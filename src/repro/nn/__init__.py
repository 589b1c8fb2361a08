"""From-scratch NumPy training framework (the Larq substitute).

Provides quantization-aware training with straight-through-estimator
ternarization, the three layer families the paper compares (dense MLP,
Neuro-C, TNN), batch normalization and dropout for the MLP random search,
and a mini-batch trainer with early stopping and convergence detection.
"""

from repro.nn.activations import get_activation, softmax
from repro.nn.initializers import neuron_scale_init
from repro.nn.layers import (
    ActivationLayer,
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    Layer,
    NeuroCLayer,
    Parameter,
    TernaryLayer,
)
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.metrics import (
    accuracy,
    chance_accuracy,
    confusion_matrix,
    per_class_accuracy,
)
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.quantizers import LATENT_CLIP, TWN_FACTOR, TernaryQuantizer
from repro.nn.trainer import (
    CONVERGENCE_MARGIN,
    History,
    TrainConfig,
    Trainer,
)

__all__ = [
    "ActivationLayer",
    "Adam",
    "BatchNormLayer",
    "CONVERGENCE_MARGIN",
    "DenseLayer",
    "DropoutLayer",
    "History",
    "LATENT_CLIP",
    "Layer",
    "MeanSquaredError",
    "NeuroCLayer",
    "Optimizer",
    "Parameter",
    "SGD",
    "Sequential",
    "SoftmaxCrossEntropy",
    "TWN_FACTOR",
    "TernaryLayer",
    "TernaryQuantizer",
    "TrainConfig",
    "Trainer",
    "accuracy",
    "chance_accuracy",
    "confusion_matrix",
    "get_activation",
    "neuron_scale_init",
    "per_class_accuracy",
    "softmax",
]

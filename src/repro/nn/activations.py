"""Activation functions (forward + derivative) for the training framework.

Each activation is a pair of pure functions on float32 arrays.  The
inference kernels use only ReLU (it quantizes to a free ``max(0, x)`` on
integer hardware); the others exist for the MLP baseline random search.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, _y: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


def leaky_relu(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    return np.where(x > 0.0, x, alpha * x)


def leaky_relu_grad(
    x: np.ndarray, _y: np.ndarray, alpha: float = 0.01
) -> np.ndarray:
    return np.where(x > 0.0, 1.0, alpha).astype(x.dtype)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad(_x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 1.0 - y * y


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def sigmoid_grad(_x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (1.0 - y)


def identity(x: np.ndarray) -> np.ndarray:
    return x


def identity_grad(x: np.ndarray, _y: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the max-subtraction stability trick."""
    shifted = x - x.max(axis=-1, keepdims=True)
    expx = np.exp(shifted)
    return expx / expx.sum(axis=-1, keepdims=True)


#: name -> (forward, grad(x, y)) pairs; softmax is handled by the loss.
_ACTIVATIONS = {
    "relu": (relu, relu_grad),
    "leaky_relu": (leaky_relu, leaky_relu_grad),
    "tanh": (tanh, tanh_grad),
    "sigmoid": (sigmoid, sigmoid_grad),
    "identity": (identity, identity_grad),
}


def get_activation(name: str):
    """Return the ``(forward, grad)`` pair registered under ``name``."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        known = ", ".join(sorted(_ACTIVATIONS))
        raise ConfigurationError(
            f"unknown activation {name!r}; known: {known}"
        ) from None

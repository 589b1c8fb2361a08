"""Weight initializers for the NumPy training framework."""

from __future__ import annotations

import numpy as np


def glorot_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int,
    shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Glorot/Xavier uniform: U(-limit, limit), limit = sqrt(6/(in+out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    shape = shape if shape is not None else (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def latent_ternary_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int,
    shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Latent-weight init for STE-ternarized layers: U(-1, 1).

    Uniform over the clip interval gives the ternary quantizer a roughly
    even spread around its threshold, so initial sparsity is governed by the
    threshold alone rather than by the init distribution's shape.
    """
    shape = shape if shape is not None else (fan_in, fan_out)
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)


def neuron_scale_init(
    rng: np.random.Generator, fan_in_nnz: float, n_out: int
) -> np.ndarray:
    """Per-neuron scale init: 1/sqrt(expected active fan-in).

    This is the "built-in normalizer" role of the paper's ``w_j`` — the
    pre-activation of a Neuro-C neuron is a sum of ~``fan_in_nnz`` ternary
    contributions, so scaling by ``1/sqrt(fan_in_nnz)`` keeps activation
    variance near one without batch normalization (§3.4).
    """
    base = 1.0 / np.sqrt(max(fan_in_nnz, 1.0))
    jitter = rng.uniform(0.9, 1.1, size=n_out)
    return (base * jitter).astype(np.float32)


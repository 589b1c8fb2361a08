"""Gradient-descent optimizers operating on Parameter lists."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import Parameter


class Optimizer:
    """Interface: ``step`` applies one update from accumulated gradients."""

    def step(self, params: list[Parameter]) -> None:
        raise NotImplementedError

    @staticmethod
    def zero_grads(params: list[Parameter]) -> None:
        for p in params:
            p.zero_grad()


def _check_lr(lr: float) -> None:
    if not lr > 0:   # NaN too
        raise ConfigurationError(f"learning rate must be positive: {lr}")
    if not math.isfinite(lr):
        raise ConfigurationError(f"learning rate must be finite: {lr}")


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0) -> None:
        _check_lr(lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1): {momentum}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, params: list[Parameter]) -> None:
        for p in params:
            if self.momentum:
                v = self._velocity.setdefault(id(p), np.zeros_like(p.value))
                v *= self.momentum
                v -= self.lr * p.grad
                p.value += v
            else:
                p.value -= self.lr * p.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) — the default for ternary STE training, whose
    sparse, spiky latent-weight gradients benefit from per-parameter
    step-size adaptation."""

    def __init__(
        self,
        lr: float = 0.002,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        _check_lr(lr)
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigurationError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self, params: list[Parameter]) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p in params:
            m = self._m.setdefault(id(p), np.zeros_like(p.value))
            v = self._v.setdefault(id(p), np.zeros_like(p.value))
            m *= self.beta1
            m += (1 - self.beta1) * p.grad
            v *= self.beta2
            v += (1 - self.beta2) * p.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

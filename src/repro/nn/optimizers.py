"""Adam, the one optimizer, operating on Parameter lists."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import Parameter


#: Adam's moment decay rates and denominator guard (Kingma & Ba's values).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


def _check_lr(lr: float) -> None:
    if not lr > 0:   # NaN too
        raise ConfigurationError(f"learning rate must be positive: {lr}")
    if not math.isfinite(lr):
        raise ConfigurationError(f"learning rate must be finite: {lr}")


class _AdamState:
    """Adam's moments for one parameter list, flat in that list's order."""

    def __init__(self, params: list[Parameter]) -> None:
        sizes = [p.value.size for p in params]
        total = sum(sizes)
        self.m = np.zeros(total, np.float32)
        self.v = np.zeros(total, np.float32)
        self.grad = np.empty(total, np.float32)
        self.scratch = np.empty(total, np.float32)
        self.denom = np.empty(total, np.float32)
        self.wide: np.ndarray | None = None
        self.slices = [
            slice(end - size, end)
            for size, end in zip(sizes, np.cumsum(sizes).tolist())
        ]

    def update_buffer(self, dtype: np.dtype) -> np.ndarray:
        """Where ``lr·m̂`` goes: the scratch buffer, or a wider one."""
        if dtype == self.scratch.dtype:
            return self.scratch
        if self.wide is None or self.wide.dtype != dtype:
            self.wide = np.empty(self.scratch.size, dtype)
        return self.wide


class Adam:
    """Adam (Kingma & Ba) — the optimizer of every training run: ternary
    STE training's sparse, spiky latent-weight gradients benefit from
    per-parameter step-size adaptation."""

    def __init__(self, lr: float) -> None:
        _check_lr(lr)
        self.lr = lr
        self._states: dict[tuple[int, ...], _AdamState] = {}
        self._t = 0

    def step(self, params: list[Parameter]) -> None:
        """One update of every parameter in ``params``, fused.

        The moments belong to the parameter list: they are kept per
        list (by its parameters' identities) and built on its first
        step, flat in list order.  Pass the same list every step, as
        :class:`~repro.nn.trainer.Trainer` does; lists must not
        overlap.  Gradients are float32, as :class:`Parameter` makes
        them and the layers accumulate them in place.

        Every gradient is gathered into one flat buffer, the update is
        computed there with in-place ufuncs in the per-parameter
        order — ``m = β1·m + (1-β1)·g``, ``v = β2·v + (1-β2)·g²``,
        ``m̂ = m/(1-β1^t)``, ``v̂ = v/(1-β2^t)``,
        ``u = lr·m̂ / (√v̂ + ε)`` — and each parameter subtracts its
        slice of ``u``.  Dtype rule: ``u`` takes
        ``np.result_type(lr, m̂)``.  A Python float ``lr`` keeps the
        update in float32; a NumPy float64 ``lr`` (the cosine schedule
        assigns one, from ``np.cos``) computes ``lr·m̂`` and the
        division in float64, and the subtraction rounds the result to
        the float32 value.
        """
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        if not params:
            return
        key = tuple(map(id, params))
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _AdamState(params)
        g, m, v, scratch, denom = (
            state.grad, state.m, state.v, state.scratch, state.denom
        )
        np.concatenate([p.grad for p in params], axis=None, out=g)
        m *= BETA1
        np.multiply(g, 1 - BETA1, out=scratch)
        m += scratch
        v *= BETA2
        np.square(g, out=scratch)
        scratch *= 1 - BETA2
        v += scratch
        m_hat = np.divide(m, bias1, out=scratch)
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPSILON
        update = state.update_buffer(np.result_type(self.lr, m_hat))
        np.multiply(m_hat, self.lr, out=update)
        update /= denom
        for p, part in zip(params, state.slices):
            p.value -= update[part].reshape(p.value.shape)

"""Layers for the NumPy training framework.

The two weighted layers implement the architectures the paper compares:

- :class:`DenseLayer` — the conventional MLP baseline (per-connection
  float weights).
- :class:`NeuroCLayer` — the paper's contribution (Eq. 1): ternary
  adjacency ``A``, per-neuron scale ``w_j``, bias ``b_j``; the adjacency is
  either learned through STE ternarization or fixed (for the random and
  locality strategies of §3.2).  With ``use_scale=False`` it is the TNN
  baseline of §5.2: the per-neuron scale removed.

ReLU is the one activation: the integer kernels apply it as a free
``max(0, x)``.

All layers operate on float32 batches of shape ``(batch, features)``.
``backward(grad_out, input_grad=True)`` accumulates the parameter
gradients and returns the input gradient, or ``None`` when
``input_grad`` is false (the first layer of a model, whose input
gradient is a gradient with respect to the data).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.initializers import (
    glorot_uniform,
    latent_ternary_uniform,
    neuron_scale_init,
)
from repro.nn.quantizers import TernaryQuantizer

#: Batch norm's running-statistics decay and variance guard.
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-5


class Parameter:
    """A trainable tensor with its accumulated gradient."""

    def __init__(self, value: np.ndarray, name: str) -> None:
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.value.shape})"


class Layer:
    """Base class: forward/backward plus parameter bookkeeping."""

    def params(self) -> list[Parameter]:
        return []

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        raise NotImplementedError

    def post_update(self) -> None:
        """Hook run after each optimizer step (e.g. latent clipping)."""

    @property
    def parameter_count(self) -> int:
        """Trainable scalar count (for capacity comparisons)."""
        return sum(p.value.size for p in self.params())


class DenseLayer(Layer):
    """Fully connected layer with per-connection float weights and a bias."""

    def __init__(
        self, n_in: int, n_out: int, rng: np.random.Generator
    ) -> None:
        if n_in < 1 or n_out < 1:
            raise ConfigurationError("layer dimensions must be positive")
        self.n_in = n_in
        self.n_out = n_out
        self.weight = Parameter(glorot_uniform(rng, n_in, n_out), "weight")
        self.bias = Parameter(np.zeros(n_out, np.float32), "bias")
        self._x: np.ndarray | None = None

    def params(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        self._x = x if training else None
        return x @ self.weight.value + self.bias.value

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        x = self._x
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T if input_grad else None


class NeuroCLayer(Layer):
    """Eq. 1: ``o_j = f(w_j · Σ_i a_ij · o_i + b_j)`` (f applied outside).

    With ``fixed_adjacency`` the connectivity is frozen (the stage-2
    proxy's ternarized weights); with ``fixed_support`` the random and
    locality strategies pin which connections exist; otherwise a latent
    float matrix is ternarized on every forward pass via ``quantizer``
    and learns which connections to keep.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        rng: np.random.Generator,
        quantizer: TernaryQuantizer | None = None,
        fixed_adjacency: np.ndarray | None = None,
        fixed_support: np.ndarray | None = None,
        use_scale: bool = True,
    ) -> None:
        if n_in < 1 or n_out < 1:
            raise ConfigurationError("layer dimensions must be positive")
        if fixed_adjacency is not None and fixed_support is not None:
            raise ConfigurationError(
                "fixed_adjacency and fixed_support are mutually exclusive"
            )
        self.n_in = n_in
        self.n_out = n_out
        self.use_scale = use_scale
        self.support: np.ndarray | None = None

        if fixed_adjacency is not None:
            fixed_adjacency = np.asarray(fixed_adjacency)
            if fixed_adjacency.shape != (n_in, n_out):
                raise ConfigurationError(
                    f"fixed adjacency shape {fixed_adjacency.shape} != "
                    f"({n_in}, {n_out})"
                )
            self.fixed_adjacency = fixed_adjacency.astype(np.int8)
            self.latent = None
            self.quantizer = None
            fan_in_nnz = float(
                np.abs(self.fixed_adjacency).sum(axis=0).mean()
            )
        elif fixed_support is not None:
            # §3.2's fixed strategies: the *support* (which connections
            # exist) is a design-time decision, but the ±1 signs inside it
            # still learn through the STE, sign-only (no zeros emerge).
            fixed_support = np.asarray(fixed_support).astype(bool)
            if fixed_support.shape != (n_in, n_out):
                raise ConfigurationError(
                    f"support shape {fixed_support.shape} != "
                    f"({n_in}, {n_out})"
                )
            self.support = fixed_support
            self.fixed_adjacency = None
            self.quantizer = TernaryQuantizer(threshold=0.0)
            self.latent = Parameter(
                latent_ternary_uniform(rng, n_in, n_out), "latent_adjacency"
            )
            fan_in_nnz = float(fixed_support.sum(axis=0).mean())
        elif quantizer is None:
            raise ConfigurationError(
                "a learned adjacency needs a quantizer"
            )
        else:
            self.fixed_adjacency = None
            self.quantizer = quantizer
            self.latent = Parameter(
                latent_ternary_uniform(rng, n_in, n_out), "latent_adjacency"
            )
            fan_in_nnz = (
                1.0 - quantizer.sparsity(self.latent.value)
            ) * n_in

        if use_scale:
            self.scale = Parameter(
                neuron_scale_init(rng, fan_in_nnz, n_out), "scale"
            )
        else:
            self.scale = None
        self.bias = Parameter(np.zeros(n_out, np.float32), "bias")
        self._x: np.ndarray | None = None
        self._s: np.ndarray | None = None
        self._adjacency: np.ndarray | None = None

    # -- adjacency access -------------------------------------------------

    def ternary_adjacency(self) -> np.ndarray:
        """The int8 adjacency the inference kernel will use."""
        if self.fixed_adjacency is not None:
            return self.fixed_adjacency
        if self.support is not None:
            signs = np.where(
                self.latent.value >= 0.0, np.int8(1), np.int8(-1)
            )
            return np.where(self.support, signs, np.int8(0))
        return self.quantizer.quantize(self.latent.value)

    @property
    def sparsity(self) -> float:
        adjacency = self.ternary_adjacency()
        return float((adjacency == 0).mean())

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.ternary_adjacency()))

    # -- training ----------------------------------------------------------

    def params(self) -> list[Parameter]:
        out = []
        if self.latent is not None:
            out.append(self.latent)
        if self.scale is not None:
            out.append(self.scale)
        out.append(self.bias)
        return out

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        adjacency = self.ternary_adjacency().astype(np.float32)
        s = x @ adjacency
        if training:
            self._x, self._s, self._adjacency = x, s, adjacency
        if self.scale is not None:
            return s * self.scale.value + self.bias.value
        return s + self.bias.value

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        x, s, adjacency = self._x, self._s, self._adjacency
        if self.scale is not None:
            self.scale.grad += (grad_out * s).sum(axis=0)
            grad_s = grad_out * self.scale.value
        else:
            grad_s = grad_out
        self.bias.grad += grad_out.sum(axis=0)
        if self.latent is not None:
            # STE: gradient w.r.t. the quantized adjacency flows straight
            # to the latent weights, masked outside the clip interval (and
            # outside the fixed support, where signs cannot take effect).
            grad_adjacency = x.T @ grad_s
            mask = self.quantizer.grad_mask(self.latent.value)
            if self.support is not None:
                mask = mask * self.support
            self.latent.grad += grad_adjacency * mask
        return grad_s @ adjacency.T if input_grad else None

    def post_update(self) -> None:
        if self.latent is not None:
            self.latent.value = self.quantizer.clip_latent(self.latent.value)

    @property
    def parameter_count(self) -> int:
        """Paper's definition: neurons (scale+bias) + non-zero connections.

        The latent matrix is a training artifact; the deployed model stores
        only the surviving connections and the per-neuron parameters.
        """
        neuron_params = sum(
            p.value.size for p in (self.scale, self.bias) if p is not None
        )
        return neuron_params + self.nnz


class ReLULayer(Layer):
    """Element-wise ``max(0, x)``."""

    def __init__(self) -> None:
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if training:
            self._x = x
        return np.maximum(x, 0.0)

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if not input_grad:
            return None
        return grad_out * (self._x > 0.0).astype(self._x.dtype)


class BatchNormLayer(Layer):
    """1-D batch normalization (MLP baseline only).

    The paper points out that batch norm cannot fold into ternary weights
    and is therefore unusable at inference on the target MCU — this layer
    exists so the MLP random search can include it during *training* and so
    tests can demonstrate the deployability restriction.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.gamma = Parameter(np.ones(n, np.float32), "gamma")
        self.beta = Parameter(np.zeros(n, np.float32), "beta")
        self.running_mean = np.zeros(n, np.float32)
        self.running_var = np.ones(n, np.float32)
        self._cache: tuple | None = None

    def params(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (
                BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            ).astype(np.float32)
            self.running_var = (
                BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            ).astype(np.float32)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        x_hat = (x - mean) * inv_std
        if training:
            self._cache = (x_hat, inv_std)
        return self.gamma.value * x_hat + self.beta.value

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        x_hat, inv_std = self._cache
        batch = grad_out.shape[0]
        self.gamma.grad += (grad_out * x_hat).sum(axis=0)
        self.beta.grad += grad_out.sum(axis=0)
        if not input_grad:
            return None
        grad_x_hat = grad_out * self.gamma.value
        return (
            inv_std
            / batch
            * (
                batch * grad_x_hat
                - grad_x_hat.sum(axis=0)
                - x_hat * (grad_x_hat * x_hat).sum(axis=0)
            )
        ).astype(np.float32)


class DropoutLayer(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1): {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if not training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        self._mask = (
            self.rng.random(x.shape) < keep
        ).astype(np.float32) / keep
        return x * self._mask

    def backward(
        self, grad_out: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if not input_grad:
            return None
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

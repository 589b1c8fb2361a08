"""Adam's fused step against the per-parameter loop it replaced.

``ReferenceAdam`` is that loop, kept as the reference: per parameter,
``m`` and ``v`` updated in place, then ``p.value -= lr * m̂ / (√v̂ + ε)``.
The fused step must leave every parameter byte-identical to it after
any number of steps, with ``lr`` a Python float (the constant schedule,
float32 arithmetic) or a NumPy float64 (the cosine schedule, whose
``lr·m̂`` and division run in float64).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Parameter
from repro.nn.optimizers import Adam


class ReferenceAdam:
    """The per-parameter Adam loop, as it was before the fused step."""

    def __init__(self, lr=0.002, beta1=0.9, beta2=0.999, epsilon=1e-8):
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


shapes = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(st.integers(1, 30), st.integers(1, 30)),
    ),
    min_size=1, max_size=5,
)


def run(optimizer, shapes, steps, seed, lr_kind):
    """Train fresh parameters on seeded gradients; return their bytes."""
    rng = np.random.default_rng(seed)
    params = [
        Parameter(rng.standard_normal(shape), f"p{i}")
        for i, shape in enumerate(shapes)
    ]
    for step in range(steps):
        for p in params:
            # Spiky gradients, with exact zeros, like STE latents get.
            p.grad[...] = rng.standard_normal(p.value.shape) * (
                rng.random(p.value.shape) < 0.7
            ) * 10.0 ** rng.integers(-4, 2)
        if lr_kind == "float64":
            # What Trainer.fit assigns under the cosine schedule.
            optimizer.lr = 1e-4 + 0.5 * (0.01 - 1e-4) * (
                1.0 + np.cos(np.pi * step / max(steps - 1, 1))
            )
        optimizer.step(params)
    return [p.value.tobytes() for p in params]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shapes, st.integers(1, 50), st.integers(0, 2**32 - 1),
       st.sampled_from(["python", "float64"]))
def test_fused_step_matches_the_per_parameter_loop(
    shapes, steps, seed, lr_kind
):
    fused = run(Adam(lr=0.01), shapes, steps, seed, lr_kind)
    reference = run(ReferenceAdam(lr=0.01), shapes, steps, seed, lr_kind)
    assert fused == reference


def test_moments_are_kept_per_parameter_list():
    """A fresh list of the same parameters continues their moments."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, 6))
    grads = rng.standard_normal((4, 2, 6)).astype(np.float32)
    results = []
    for optimizer in (Adam(0.05), ReferenceAdam(0.05)):
        params = [Parameter(values[i], f"p{i}") for i in range(2)]
        for grad in grads:
            for p, g in zip(params, grad):
                p.grad = g.copy()
            optimizer.step([params[0], params[1]])   # a new list each step
        results.append([p.value.tobytes() for p in params])
    assert results[0] == results[1]

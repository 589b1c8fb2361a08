"""Sequential model container."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import Layer, NeuroCLayer, Parameter

#: Rows per inference-mode forward in :meth:`Sequential.predict`.
PREDICT_BATCH = 256


class Sequential:
    """A stack of layers trained end to end."""

    def __init__(self, layers: list[Layer], name: str = "model") -> None:
        if not layers:
            raise ConfigurationError("a model needs at least one layer")
        self.layers = list(layers)
        self.name = name

    def params(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad: np.ndarray) -> None:
        """Accumulate every parameter gradient from the loss gradient.

        The first layer's input gradient would be a gradient with
        respect to the data, which no parameter reads, so that layer
        runs with ``input_grad=False``.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.backward(grad, input_grad=False)

    def post_update(self) -> None:
        for layer in self.layers:
            layer.post_update()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax of logits) in inference mode."""
        outputs = [
            self.forward(x[i : i + PREDICT_BATCH], training=False)
            for i in range(0, len(x), PREDICT_BATCH)
        ]
        return np.concatenate(outputs).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(y)).mean())

    @property
    def parameter_count(self) -> int:
        """Deployable parameter count (paper's definition for Neuro-C)."""
        return sum(layer.parameter_count for layer in self.layers)

    def neuroc_layers(self) -> list[NeuroCLayer]:
        """All ternary-adjacency layers (Neuro-C and TNN), in order."""
        return [l for l in self.layers if isinstance(l, NeuroCLayer)]

    def summary(self) -> str:
        lines = [f"Sequential {self.name!r}:"]
        for i, layer in enumerate(self.layers):
            extra = ""
            if isinstance(layer, NeuroCLayer):
                extra = (
                    f" nnz={layer.nnz} sparsity={layer.sparsity:.2f}"
                    f" scale={'yes' if layer.use_scale else 'no'}"
                )
            lines.append(
                f"  [{i}] {type(layer).__name__}"
                f" params={layer.parameter_count}{extra}"
            )
        lines.append(f"  total deployable params: {self.parameter_count}")
        return "\n".join(lines)

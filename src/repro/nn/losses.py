"""The training loss: softmax cross-entropy over integer class labels."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the max-subtraction stability trick."""
    shifted = x - x.max(axis=-1, keepdims=True)
    expx = np.exp(shifted)
    return expx / expx.sum(axis=-1, keepdims=True)


class SoftmaxCrossEntropy:
    """Softmax + cross-entropy fused for numerical stability.

    ``targets`` are integer class labels of shape ``(batch,)``.
    ``forward`` returns the scalar loss and ``backward`` its gradient
    with respect to the logits passed to ``forward``.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets)
        if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
            raise ConfigurationError(
                f"targets shape {targets.shape} does not match batch "
                f"{logits.shape[0]}"
            )
        probs = softmax(logits.astype(np.float64))
        self._probs = probs
        self._targets = targets
        picked = probs[np.arange(len(targets)), targets]
        return float(-np.log(np.clip(picked, 1e-12, None)).mean())

    def backward(self) -> np.ndarray:
        probs, targets = self._probs, self._targets
        grad = probs.copy()
        grad[np.arange(len(targets)), targets] -= 1.0
        return (grad / len(targets)).astype(np.float32)

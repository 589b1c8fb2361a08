"""Mini-batch training loop with early stopping and convergence detection.

Convergence detection matters for Figure 8: the paper reports that the TNN
baseline (Neuro-C without ``w_j``) "fails to converge entirely on CIFAR5".
:class:`History.converged` operationalizes that claim — a run converged iff
its best validation accuracy clears chance level by a configurable margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam

#: A run counts as converged if best val accuracy beats chance by this much.
CONVERGENCE_MARGIN = 0.15
#: Mini-batch rows per optimizer step.
BATCH_SIZE = 64
#: A validation gain smaller than this does not reset the patience.
MIN_DELTA = 1e-4
#: Where the cosine schedule anneals the learning rate to.
LR_FLOOR = 1e-4


def chance_accuracy(targets: np.ndarray) -> float:
    """Accuracy of always predicting the majority class."""
    _, counts = np.unique(np.asarray(targets), return_counts=True)
    return float(counts.max() / counts.sum())


@dataclass
class History:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    chance: float = 0.0
    epochs_run: int = 0
    stopped_early: bool = False

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy, default=0.0)

    @property
    def final_val_accuracy(self) -> float:
        return self.val_accuracy[-1] if self.val_accuracy else 0.0

    @property
    def converged(self) -> bool:
        """Did training end in a usable state?

        Judged on the *final* validation accuracy: a run that spikes above
        chance and then collapses (the failure mode of TNNs on hard inputs,
        §5.2) did not converge, even though some epoch looked promising.
        """
        return self.final_val_accuracy >= self.chance + CONVERGENCE_MARGIN


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training run."""

    epochs: int = 30
    patience: int = 8        # early stop after this many non-improving epochs
    #: "constant" keeps the optimizer's lr; "cosine" anneals it to
    #: :data:`LR_FLOOR` over the epoch budget (helps STE ternary training
    #: settle its adjacency in late epochs).
    lr_schedule: str = "constant"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise TrainingError(
                f"unknown lr schedule {self.lr_schedule!r}"
            )


class Trainer:
    """Trains a :class:`Sequential` model on arrays of (x, y) under
    softmax cross-entropy; ``rng`` shuffles every epoch."""

    def __init__(
        self, model: Sequential, optimizer: Adam, rng: np.random.Generator
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss = SoftmaxCrossEntropy()
        self.rng = rng

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray,
        y_val: np.ndarray,
        config: TrainConfig,
    ) -> History:
        x_train = np.asarray(x_train, dtype=np.float32)
        y_train = np.asarray(y_train)
        if len(x_train) != len(y_train):
            raise TrainingError(
                f"{len(x_train)} samples but {len(y_train)} labels"
            )
        if len(x_train) == 0:
            raise TrainingError("empty training set")

        history = History(chance=chance_accuracy(y_val))
        params = self.model.params()
        best = -np.inf
        stale = 0
        base_lr = self.optimizer.lr

        for epoch in range(config.epochs):
            if config.lr_schedule == "cosine":
                progress = epoch / max(config.epochs - 1, 1)
                self.optimizer.lr = LR_FLOOR + 0.5 * (
                    base_lr - LR_FLOOR
                ) * (1.0 + np.cos(np.pi * progress))
            order = self.rng.permutation(len(x_train))
            epoch_loss = 0.0
            correct = 0
            for start in range(0, len(order), BATCH_SIZE):
                idx = order[start : start + BATCH_SIZE]
                xb, yb = x_train[idx], y_train[idx]
                for p in params:
                    p.zero_grad()
                logits = self.model.forward(xb, training=True)
                if not np.isfinite(logits).all():
                    raise TrainingError(
                        f"non-finite activations at epoch {epoch} "
                        f"in model {self.model.name!r}"
                    )
                batch_loss = self.loss.forward(logits, yb)
                self.model.backward(self.loss.backward())
                self.optimizer.step(params)
                self.model.post_update()
                epoch_loss += batch_loss * len(idx)
                correct += int((logits.argmax(axis=1) == yb).sum())

            history.train_loss.append(epoch_loss / len(order))
            history.train_accuracy.append(correct / len(order))
            val_acc = self.model.accuracy(x_val, y_val)
            history.val_accuracy.append(val_acc)
            history.epochs_run = epoch + 1

            if val_acc > best + MIN_DELTA:
                best = val_acc
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    history.stopped_early = True
                    break

        return history

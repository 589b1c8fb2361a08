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
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import chance_accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam, Optimizer

#: A run counts as converged if best val accuracy beats chance by this much.
CONVERGENCE_MARGIN = 0.15


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
    batch_size: int = 64
    patience: int = 8        # early stop after this many non-improving epochs
    min_delta: float = 1e-4  # improvement smaller than this does not count
    shuffle: bool = True
    verbose: bool = False
    #: "constant" keeps the optimizer's lr; "cosine" anneals it to
    #: ``lr_floor`` over the epoch budget (helps STE ternary training
    #: settle its adjacency in late epochs).
    lr_schedule: str = "constant"
    lr_floor: float = 1e-4

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr_schedule not in ("constant", "cosine"):
            raise TrainingError(
                f"unknown lr schedule {self.lr_schedule!r}"
            )


class Trainer:
    """Trains a :class:`Sequential` model on arrays of (x, y)."""

    def __init__(
        self,
        model: Sequential,
        optimizer: Optimizer | None = None,
        loss: Loss | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer or Adam()
        self.loss = loss or SoftmaxCrossEntropy()
        self.rng = rng or np.random.default_rng(0)

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray,
        y_val: np.ndarray,
        config: TrainConfig | None = None,
    ) -> History:
        config = config or TrainConfig()
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
        base_lr = getattr(self.optimizer, "lr", None)

        for epoch in range(config.epochs):
            if config.lr_schedule == "cosine" and base_lr is not None:
                progress = epoch / max(config.epochs - 1, 1)
                self.optimizer.lr = config.lr_floor + 0.5 * (
                    base_lr - config.lr_floor
                ) * (1.0 + np.cos(np.pi * progress))
            order = (
                self.rng.permutation(len(x_train))
                if config.shuffle
                else np.arange(len(x_train))
            )
            epoch_loss = 0.0
            correct = 0
            for start in range(0, len(order), config.batch_size):
                idx = order[start : start + config.batch_size]
                xb, yb = x_train[idx], y_train[idx]
                self.optimizer.zero_grads(params)
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
            if config.verbose:
                print(
                    f"epoch {epoch + 1:3d}  loss {history.train_loss[-1]:.4f}"
                    f"  train {history.train_accuracy[-1]:.4f}"
                    f"  val {val_acc:.4f}"
                )

            if val_acc > best + config.min_delta:
                best = val_acc
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    history.stopped_early = True
                    break

        return history

"""Dataset container, splits, chunked generation, and the generator
registry.

All datasets are procedural (see DESIGN.md §1 for the substitution
argument): deterministic under a seed, normalized to [0, 1] float32, and
flattened to ``(n, features)`` — the shape the fully connected models
consume.  ``image_shape`` records the original geometry for display and for
the locality adjacency strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Dataset:
    """An immutable train/test split of a classification task."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int
    image_shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.x_train) != len(self.y_train):
            raise ConfigurationError("train arrays disagree on length")
        if len(self.x_test) != len(self.y_test):
            raise ConfigurationError("test arrays disagree on length")
        if self.x_train.ndim != 2 or self.x_test.ndim != 2:
            raise ConfigurationError("dataset features must be flattened 2-D")

    @property
    def num_features(self) -> int:
        return self.x_train.shape[1]

    def split_validation(
        self, fraction: float = 0.15, seed: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split the training set into (x_tr, y_tr, x_val, y_val)."""
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(
                f"validation fraction must be in (0, 1): {fraction}"
            )
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.x_train))
        n_val = max(int(len(order) * fraction), 1)
        val_idx, train_idx = order[:n_val], order[n_val:]
        return (
            self.x_train[train_idx],
            self.y_train[train_idx],
            self.x_train[val_idx],
            self.y_train[val_idx],
        )

    def subset(self, n_train: int, n_test: int) -> "Dataset":
        """A class-balanced prefix subset (for fast tests/examples)."""
        return Dataset(
            name=self.name,
            x_train=self.x_train[:n_train],
            y_train=self.y_train[:n_train],
            x_test=self.x_test[:n_test],
            y_test=self.y_test[:n_test],
            num_classes=self.num_classes,
            image_shape=self.image_shape,
        )


#: Rows drawn and then rendered together.  A constant, so a generator's
#: working set does not grow with the number of rows it is asked for.
CHUNK_ROWS = 32


def generate_rows(
    count: int, num_classes: int, features: int,
    rng: np.random.Generator,
    draw: Callable[[int, np.random.Generator], Any],
    render: Callable[[np.ndarray, list], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) float32/int64 for ``count`` rows, row ``i`` of class
    ``i % num_classes``, so prefix subsets remain class-balanced.

    ``draw(label, rng)`` takes every random value one row needs;
    ``render(labels, draws)`` turns a chunk of draws into its
    ``(rows, features)`` block and takes none.  Each chunk is drawn in
    row order before it is rendered, so the stream of draws, and hence
    the bytes, do not depend on the chunk size.
    """
    y = np.arange(count, dtype=np.int64) % num_classes
    x = np.empty((count, features), dtype=np.float32)
    for start in range(0, count, CHUNK_ROWS):
        labels = y[start : start + CHUNK_ROWS]
        draws = [draw(int(label), rng) for label in labels]
        x[start : start + len(labels)] = render(labels, draws)
    return x, y


_GENERATORS: dict[str, callable] = {}
_CACHE: dict[tuple, Dataset] = {}


def register_dataset(name: str):
    """Decorator: register ``fn(n_train, n_test, seed) -> Dataset``."""

    def decorate(fn):
        if name in _GENERATORS:
            raise ConfigurationError(f"duplicate dataset {name!r}")
        _GENERATORS[name] = fn
        return fn

    return decorate


def load(
    name: str, n_train: int | None = None, n_test: int | None = None,
    seed: int = 0,
) -> Dataset:
    """Load (and memoize) a dataset by registry name.

    ``n_train``/``n_test`` default to each generator's standard sizes.
    """
    try:
        generator = _GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(_GENERATORS))
        raise ConfigurationError(
            f"unknown dataset {name!r}; known: {known}"
        ) from None
    for role, size in (("n_train", n_train), ("n_test", n_test)):
        if size is not None and size < 1:
            raise ConfigurationError(
                f"dataset {name!r} needs {role} >= 1, got {size}"
            )
    key = (name, n_train, n_test, seed)
    if key not in _CACHE:
        _CACHE[key] = generator(n_train=n_train, n_test=n_test, seed=seed)
    return _CACHE[key]


def dataset_names() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))


def clear_cache() -> None:
    """Drop memoized datasets (used by tests to bound memory)."""
    _CACHE.clear()

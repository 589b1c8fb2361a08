"""``digits_like``: 8×8 grayscale digits (the paper's Figure 1 dataset).

Stands in for the UCI *digits* set (Alpaydin & Alimoglu): tiny images,
10 classes, easy enough that small models reach high accuracy but with
enough variation that accuracy rises smoothly with capacity — the property
Figure 1's strategy comparison depends on.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset, generate_rows, register_dataset
from repro.datasets.strokes import draw_digit, render_digits

IMAGE_SIZE = 8
NUM_CLASSES = 10
DEFAULT_TRAIN = 1200
DEFAULT_TEST = 400


def _draw(digit: int, rng: np.random.Generator):
    strokes = draw_digit(digit, IMAGE_SIZE, rng, jitter=0.9)
    return strokes, rng.normal(0.0, 0.08, IMAGE_SIZE * IMAGE_SIZE)


def _render(labels: np.ndarray, draws: list) -> np.ndarray:
    strokes, noise = zip(*draws)
    images = render_digits(strokes, IMAGE_SIZE, pen_sigma=0.95 / IMAGE_SIZE)
    noise = np.stack(noise).astype(np.float32)
    return np.clip(images.reshape(len(draws), -1) + noise, 0.0, 1.0)


def _generate(count: int, rng: np.random.Generator):
    return generate_rows(
        count, NUM_CLASSES, IMAGE_SIZE * IMAGE_SIZE, rng, _draw, _render
    )


@register_dataset("digits_like")
def make_digits_like(
    n_train: int | None = None, n_test: int | None = None, seed: int = 0
) -> Dataset:
    n_train = n_train if n_train is not None else DEFAULT_TRAIN
    n_test = n_test if n_test is not None else DEFAULT_TEST
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x8D]))
    x_train, y_train = _generate(n_train, rng)
    x_test, y_test = _generate(n_test, rng)
    return Dataset(
        name="digits_like",
        x_train=x_train,
        y_train=y_train,
        x_test=x_test,
        y_test=y_test,
        num_classes=NUM_CLASSES,
        image_shape=(IMAGE_SIZE, IMAGE_SIZE),
    )

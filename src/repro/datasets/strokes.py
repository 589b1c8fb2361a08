"""Stroke-based digit rendering for the procedural image datasets.

Digits are described as polylines in the unit square and rasterized with a
Gaussian pen.  Per-sample variation comes from a random affine transform
(rotation, anisotropic scale, shear, translation) plus a smooth sinusoidal
warp — a cheap stand-in for the elastic distortions of handwriting — and
additive pixel noise applied by the dataset generators.

Rendering comes in two steps.  :func:`draw_digit` takes every random value
one sample needs from the generator's stream, in a fixed order;
:func:`render_digits` then renders a chunk of draws in one vectorised pass
and takes none.  Templates are resampled once per (template, size).  The
templates live in :data:`DIGIT_TEMPLATES` and
:data:`DIGIT_STYLE_VARIANTS`; noise, sizes and class order belong to the
generators.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError

Polyline = list[tuple[float, float]]


def _ellipse(
    cx: float, cy: float, rx: float, ry: float, points: int = 14
) -> Polyline:
    angles = np.linspace(0.0, 2.0 * np.pi, points)
    return [
        (cx + rx * float(np.cos(a)), cy + ry * float(np.sin(a)))
        for a in angles
    ]


#: Hand-crafted polyline skeletons for the digits 0-9 (unit square, y down).
DIGIT_TEMPLATES: dict[int, list[Polyline]] = {
    0: [_ellipse(0.5, 0.5, 0.22, 0.36)],
    1: [[(0.35, 0.28), (0.52, 0.12)], [(0.52, 0.12), (0.52, 0.88)]],
    2: [
        [
            (0.28, 0.3), (0.36, 0.14), (0.6, 0.12), (0.72, 0.28),
            (0.62, 0.5), (0.32, 0.72), (0.26, 0.87),
        ],
        [(0.26, 0.87), (0.74, 0.87)],
    ],
    3: [
        [(0.3, 0.16), (0.58, 0.12), (0.7, 0.28), (0.52, 0.46)],
        [(0.52, 0.46), (0.72, 0.6), (0.64, 0.83), (0.3, 0.87)],
    ],
    4: [
        [(0.66, 0.88), (0.66, 0.12)],
        [(0.66, 0.12), (0.26, 0.62), (0.8, 0.62)],
    ],
    5: [
        [
            (0.72, 0.13), (0.32, 0.13), (0.3, 0.46), (0.56, 0.42),
            (0.72, 0.58), (0.62, 0.84), (0.28, 0.85),
        ]
    ],
    6: [
        [
            (0.64, 0.13), (0.38, 0.32), (0.28, 0.62), (0.42, 0.86),
            (0.64, 0.78), (0.62, 0.54), (0.32, 0.56),
        ]
    ],
    7: [[(0.26, 0.13), (0.74, 0.13), (0.44, 0.88)]],
    8: [
        _ellipse(0.5, 0.3, 0.17, 0.17, points=12),
        _ellipse(0.5, 0.68, 0.2, 0.2, points=12),
    ],
    9: [
        _ellipse(0.52, 0.32, 0.18, 0.2, points=12),
        [(0.7, 0.38), (0.6, 0.88)],
    ],
}


def sample_polyline(polyline: Polyline, spacing: float) -> np.ndarray:
    """Resample a polyline into points at most ``spacing`` apart.

    Returns an array of shape (n, 2) in unit-square coordinates.
    """
    if len(polyline) < 2:
        raise ConfigurationError("a polyline needs at least two vertices")
    points: list[np.ndarray] = []
    vertices = np.asarray(polyline, dtype=np.float64)
    for a, b in zip(vertices, vertices[1:]):
        length = float(np.hypot(*(b - a)))
        n = max(int(np.ceil(length / spacing)), 1)
        t = np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
        points.append(a + t * (b - a))
    points.append(vertices[-1:])
    return np.concatenate(points)


#: Alternative handwriting styles for digits that humans write multiple
#: ways.  Style diversity is what forces model capacity: each extra mode
#: per class adds decision-boundary structure small models cannot fit.
DIGIT_STYLE_VARIANTS: dict[int, list[list[Polyline]]] = {
    1: [[[(0.5, 0.1), (0.5, 0.9)]]],                       # no flag
    4: [[  # open-top four
        [(0.36, 0.12), (0.3, 0.55), (0.78, 0.55)],
        [(0.62, 0.3), (0.6, 0.9)],
    ]],
    7: [[  # crossed seven
        [(0.26, 0.14), (0.74, 0.14), (0.46, 0.88)],
        [(0.34, 0.5), (0.66, 0.5)],
    ]],
    9: [[  # straight-tailed nine
        _ellipse(0.5, 0.3, 0.19, 0.19, points=12),
        [(0.69, 0.33), (0.69, 0.9)],
    ]],
    2: [[  # flat-bottomed two with loop
        [
            (0.3, 0.28), (0.4, 0.13), (0.64, 0.13), (0.7, 0.32),
            (0.52, 0.55), (0.3, 0.75), (0.3, 0.88), (0.74, 0.88),
        ],
    ]],
}


#: The nine uniforms a rendering draws first, in stream order: rotation,
#: x and y scale, shear, x and y translation, the warp's two phases, and
#: its amplitude.  All but the phases are scaled by the jitter.
_UNIFORM_LOW = np.array(
    [-0.2, -0.15, -0.15, -0.15, -0.06, -0.06, 0.0, 0.0, 0.0]
)
_UNIFORM_HIGH = np.array(
    [0.2, 0.15, 0.15, 0.15, 0.06, 0.06, 2 * np.pi, 2 * np.pi, 0.02]
)


class DigitDraw(NamedTuple):
    """Every random choice behind one digit rendering."""

    uniforms: np.ndarray      # the nine uniforms above, unscaled
    jitter: float
    points: np.ndarray        # template pen path after any pen skip
    stray: np.ndarray | None  # distractor stroke, drawn untransformed


@lru_cache(maxsize=None)
def _template_points(digit: int, variant: int, size: int) -> np.ndarray:
    """A template's pen path, resampled once for each image size."""
    strokes = [DIGIT_TEMPLATES[digit]] + DIGIT_STYLE_VARIANTS.get(digit, [])
    points = np.concatenate([
        sample_polyline(polyline, spacing=0.35 / size)
        for polyline in strokes[variant]
    ])
    points.flags.writeable = False
    return points


def _random_distractor(rng: np.random.Generator) -> Polyline:
    """A short stray stroke (smudge / pen skip) anywhere in the image."""
    x0, y0 = rng.uniform(0.1, 0.9, size=2)
    angle = rng.uniform(0, 2 * np.pi)
    length = rng.uniform(0.08, 0.2)
    return [
        (float(x0), float(y0)),
        (float(x0 + length * np.cos(angle)),
         float(y0 + length * np.sin(angle))),
    ]


def draw_digit(
    digit: int,
    size: int,
    rng: np.random.Generator,
    jitter: float = 1.0,
    stroke_dropout: float = 0.0,
    distractor_prob: float = 0.0,
) -> DigitDraw:
    """Draw one randomized rendering of ``digit`` for :func:`render_digits`.

    ``jitter`` scales all geometric variation; 0 renders the bare template.
    ``stroke_dropout`` is the probability of erasing a contiguous chunk of
    the pen path (a pen skip); ``distractor_prob`` adds a stray stroke.
    """
    uniforms = rng.uniform(_UNIFORM_LOW, _UNIFORM_HIGH)
    variants = 1 + len(DIGIT_STYLE_VARIANTS.get(digit, []))
    points = _template_points(digit, int(rng.integers(0, variants)), size)
    if stroke_dropout > 0.0 and rng.random() < stroke_dropout:
        # Erase a contiguous 10-20 % of the pen path.
        n = len(points)
        gap = max(1, int(n * rng.uniform(0.1, 0.2)))
        start = int(rng.integers(0, max(n - gap, 1)))
        points = np.delete(points, slice(start, start + gap), axis=0)
    stray = None
    if distractor_prob > 0.0 and rng.random() < distractor_prob:
        stray = sample_polyline(_random_distractor(rng), spacing=0.35 / size)
    return DigitDraw(uniforms, jitter, points, stray)


def render_digits(
    draws: list[DigitDraw], size: int, pen_sigma: float
) -> np.ndarray:
    """Render a chunk of draws as ``(len(draws), size, size)`` float32.

    Each draw's pen path gets its affine transform about the square's
    center (rotation @ shear @ scale, then translation) and a smooth
    sinusoidal warp, each axis shifted by a sine of the other; the stray
    stroke is added afterwards, untransformed.
    """
    uniforms = np.stack([draw.uniforms for draw in draws])
    jitter = np.array([draw.jitter for draw in draws])[:, None]
    scaled = uniforms * jitter
    rotation, shear = scaled[:, 0], scaled[:, 3]
    c, s = np.cos(rotation), np.sin(rotation)
    rotate = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    shear_m = np.zeros_like(rotate)
    shear_m[:, 0, 0] = shear_m[:, 1, 1] = 1.0
    shear_m[:, 0, 1] = shear
    scale = np.zeros_like(rotate)
    scale[:, 0, 0] = 1.0 + scaled[:, 1]
    scale[:, 1, 1] = 1.0 + scaled[:, 2]
    matrix = rotate @ shear_m @ scale

    # One stacked product needs equal-length paths: zero-pad them, and
    # drop the padding after the warp.  BLAS computes each row of a
    # product of two or more rows alone, so padding changes no bit.
    lengths = [len(draw.points) for draw in draws]
    points = np.zeros((len(draws), max(lengths), 2))
    for row, draw in zip(points, draws):
        row[: len(draw.points)] = draw.points
    center = np.array([0.5, 0.5])
    points = (
        (points - center) @ matrix.transpose(0, 2, 1) + center
        + scaled[:, None, 4:6]
    )
    x, y = points[..., 0], points[..., 1]
    amplitude, phase = scaled[:, 8:9], uniforms[:, 6:8]
    points = np.stack([
        x + amplitude * np.sin(2.0 * np.pi * y + phase[:, 0:1]),
        y + amplitude * np.sin(2.0 * np.pi * x + phase[:, 1:2]),
    ], axis=-1)

    pieces, starts = [], [0]
    for warped, length, draw in zip(points, lengths, draws):
        pieces.append(warped[:length])
        if draw.stray is not None:
            pieces.append(draw.stray)
            length += len(draw.stray)
        starts.append(starts[-1] + length)
    return _rasterize(np.concatenate(pieces), starts[:-1], size, pen_sigma)


def _rasterize(
    points: np.ndarray, starts: list[int], size: int, pen_sigma: float
) -> np.ndarray:
    """Gaussian-pen images of a chunk's unit-square point sets, stored
    back to back in ``points`` from the offsets ``starts``.

    A max-composite, so stroke crossings do not bloom brighter than the
    pen itself.  The brightest point of a pixel is its nearest, and
    ``exp`` is monotone, so each pixel's squared distances are reduced to
    their minimum first and exponentiated once.  The reduction runs one
    pixel row at a time, so the working set is ``size`` distances per
    point of the chunk.
    """
    grid = (np.arange(size) + 0.5) / size
    dx2 = grid[:, None] - points[:, 0]   # (pixel column, point)
    dy2 = grid[:, None] - points[:, 1]   # (pixel row, point)
    dx2 *= dx2
    dy2 *= dy2
    nearest = np.empty((size, size, len(starts)))
    for row in range(size):
        np.minimum.reduceat(dx2 + dy2[row], starts, axis=1, out=nearest[row])
    intensity = np.exp(-nearest / (2.0 * pen_sigma**2)).astype(np.float32)
    return np.moveaxis(intensity, -1, 0)

"""Polygon silhouettes and textured composites for the harder datasets.

``fashion_like`` uses filled garment silhouettes; ``cifar5_like`` layers a
coloured background, a foreground polygon, and texture.  Polygons are
defined in the unit square and filled with a whole-array ray-casting
point-in-polygon test — no plotting libraries involved.

As in :mod:`repro.datasets.strokes`, ``draw_*`` takes one sample's random
values from the generator's stream and ``render_*`` renders a chunk of
draws in one pass: the silhouettes of one class are transformed and
filled together, and the texture's gather indices and weights are built
once per (grid, image) size.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

Polygon = list[tuple[float, float]]


def _rect(x0, y0, x1, y1) -> Polygon:
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


#: Garment silhouettes, one or more polygons per class (unit square, y down).
#: Class order follows Fashion-MNIST: tshirt, trouser, pullover, dress, coat,
#: sandal, shirt, sneaker, bag, ankle boot.  Several pairs are deliberately
#: similar (tshirt/shirt, pullover/coat, sneaker/ankle-boot) so the task is
#: harder than digits, as in the real benchmark.
FASHION_TEMPLATES: dict[int, list[Polygon]] = {
    0: [  # t-shirt: torso + short sleeves
        _rect(0.32, 0.25, 0.68, 0.85),
        [(0.32, 0.25), (0.14, 0.32), (0.2, 0.45), (0.32, 0.4)],
        [(0.68, 0.25), (0.86, 0.32), (0.8, 0.45), (0.68, 0.4)],
    ],
    1: [  # trousers: two legs
        [(0.36, 0.12), (0.64, 0.12), (0.66, 0.3), (0.54, 0.3), (0.53, 0.9),
         (0.42, 0.9), (0.47, 0.3), (0.34, 0.3)],
    ],
    2: [  # pullover: torso + long sleeves
        _rect(0.34, 0.22, 0.66, 0.82),
        [(0.34, 0.22), (0.16, 0.3), (0.12, 0.72), (0.24, 0.72), (0.34, 0.4)],
        [(0.66, 0.22), (0.84, 0.3), (0.88, 0.72), (0.76, 0.72), (0.66, 0.4)],
    ],
    3: [  # dress: fitted top flaring out
        [(0.42, 0.12), (0.58, 0.12), (0.62, 0.4), (0.74, 0.88),
         (0.26, 0.88), (0.38, 0.4)],
    ],
    4: [  # coat: like pullover but open front and longer
        _rect(0.32, 0.18, 0.49, 0.9),
        _rect(0.51, 0.18, 0.68, 0.9),
        [(0.32, 0.18), (0.15, 0.28), (0.12, 0.78), (0.23, 0.78), (0.32, 0.4)],
        [(0.68, 0.18), (0.85, 0.28), (0.88, 0.78), (0.77, 0.78), (0.68, 0.4)],
    ],
    5: [  # sandal: sole + straps
        [(0.15, 0.7), (0.85, 0.62), (0.88, 0.74), (0.16, 0.8)],
        _rect(0.3, 0.45, 0.38, 0.68),
        _rect(0.58, 0.42, 0.66, 0.64),
    ],
    6: [  # shirt: t-shirt with collar wedge (subtly different)
        _rect(0.33, 0.24, 0.67, 0.86),
        [(0.33, 0.24), (0.15, 0.33), (0.21, 0.48), (0.33, 0.42)],
        [(0.67, 0.24), (0.85, 0.33), (0.79, 0.48), (0.67, 0.42)],
        [(0.45, 0.24), (0.5, 0.34), (0.55, 0.24)],
    ],
    7: [  # sneaker: low profile with toe curve
        [(0.12, 0.72), (0.3, 0.5), (0.55, 0.48), (0.88, 0.6),
         (0.88, 0.76), (0.12, 0.78)],
    ],
    8: [  # bag: body + handle
        _rect(0.25, 0.42, 0.75, 0.85),
        [(0.35, 0.42), (0.38, 0.25), (0.62, 0.25), (0.65, 0.42),
         (0.58, 0.42), (0.56, 0.32), (0.44, 0.32), (0.42, 0.42)],
    ],
    9: [  # ankle boot: sneaker plus shaft
        [(0.12, 0.74), (0.3, 0.55), (0.52, 0.52), (0.88, 0.62),
         (0.88, 0.78), (0.12, 0.8)],
        _rect(0.3, 0.25, 0.52, 0.56),
    ],
}


#: Foreground shapes for cifar5_like's five classes (airplane, automobile,
#: bird, cat, deer in spirit: cross, slab, wedge, blob-with-ears, tall blob).
CIFAR5_SHAPES: dict[int, list[Polygon]] = {
    0: [  # airplane: fuselage + wings
        _rect(0.2, 0.46, 0.8, 0.56),
        [(0.42, 0.2), (0.52, 0.2), (0.56, 0.8), (0.46, 0.8)],
    ],
    1: [  # automobile: body + cabin
        _rect(0.15, 0.5, 0.85, 0.72),
        [(0.3, 0.5), (0.38, 0.34), (0.66, 0.34), (0.72, 0.5)],
    ],
    2: [  # bird: body wedge + wing
        [(0.2, 0.55), (0.55, 0.35), (0.8, 0.5), (0.6, 0.68), (0.3, 0.68)],
        [(0.45, 0.45), (0.7, 0.25), (0.6, 0.5)],
    ],
    3: [  # cat: round head + ears
        [(0.3, 0.45), (0.36, 0.3), (0.44, 0.42), (0.58, 0.42), (0.66, 0.3),
         (0.7, 0.45), (0.68, 0.62), (0.5, 0.72), (0.32, 0.62)],
    ],
    4: [  # deer: tall body + head
        _rect(0.38, 0.35, 0.62, 0.8),
        [(0.42, 0.35), (0.36, 0.18), (0.5, 0.28), (0.64, 0.18), (0.58, 0.35)],
    ],
}

#: Mean background/foreground RGB per cifar5_like class; heavily jittered at
#: sample time so colour alone is an unreliable cue.
CIFAR5_COLORS: dict[int, tuple[np.ndarray, np.ndarray]] = {
    0: (np.array([0.55, 0.7, 0.9]), np.array([0.75, 0.75, 0.8])),   # sky
    1: (np.array([0.5, 0.5, 0.52]), np.array([0.7, 0.25, 0.25])),   # road
    2: (np.array([0.6, 0.75, 0.85]), np.array([0.45, 0.35, 0.3])),  # sky
    3: (np.array([0.55, 0.5, 0.45]), np.array([0.6, 0.5, 0.4])),    # indoor
    4: (np.array([0.35, 0.55, 0.35]), np.array([0.5, 0.38, 0.28])), # field
}


#: The four uniforms a silhouette draws, in stream order: rotation, scale,
#: x and y translation.  All are scaled by the jitter.
_SILHOUETTE_LOW = np.array([-0.12, -0.12, -0.05, -0.05])
_SILHOUETTE_HIGH = np.array([0.12, 0.12, 0.05, 0.05])


def draw_silhouette(
    rng: np.random.Generator, jitter: float = 1.0
) -> np.ndarray:
    """One silhouette's (rotation, scale, x shift, y shift)."""
    uniforms = rng.uniform(_SILHOUETTE_LOW, _SILHOUETTE_HIGH)
    rotation, scale, dx, dy = uniforms * jitter
    return np.array([rotation, 1.0 + scale, dx, dy])


def render_silhouettes(
    templates: dict[int, list[Polygon]],
    labels: np.ndarray,
    draws: np.ndarray,
    size: int,
) -> np.ndarray:
    """Union of each row's jittered filled polygons, as ``(rows, size,
    size)`` float32 in {0, 1}.

    Every polygon is rotated and scaled about (0.5, 0.5), then translated.
    Rows of one class share their polygons, so each class is transformed
    and filled in one batch.
    """
    center = np.array([0.5, 0.5])
    masks = np.zeros((len(labels), size * size), dtype=bool)
    for label in np.unique(labels):
        rows = np.flatnonzero(labels == label)
        rotation, scale = draws[rows, 0], draws[rows, 1]
        c, s = np.cos(rotation), np.sin(rotation)
        matrix = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
        matrix = matrix * scale[:, None, None]
        polygons = _vertex_array(templates[int(label)])
        moved = (
            (polygons.reshape(-1, 2) - center) @ matrix.transpose(0, 2, 1)
            + center + draws[rows, None, 2:4]
        )
        masks[rows] = _fill(moved.reshape((len(rows),) + polygons.shape),
                            size).any(axis=1)
    return masks.reshape(-1, size, size).astype(np.float32)


def _vertex_array(polygons: list[Polygon]) -> np.ndarray:
    """``(polygons, vertices, 2)``, each polygon padded with copies of its
    last vertex: a zero-length edge crosses no ray, so fills are
    unchanged."""
    width = max(len(polygon) for polygon in polygons)
    return np.array([
        polygon + [polygon[-1]] * (width - len(polygon))
        for polygon in polygons
    ])


def _fill(polygons: np.ndarray, size: int) -> np.ndarray:
    """Even-odd masks of ``(..., vertices, 2)`` polygons on a
    ``size``×``size`` grid, flattened, by ray casting every edge at once."""
    grid = (np.arange(size) + 0.5) / size
    px, py = np.tile(grid, size), np.repeat(grid, size)
    ax, ay = polygons[..., 0, None], polygons[..., 1, None]
    bx, by = np.roll(ax, -1, axis=-2), np.roll(ay, -1, axis=-2)
    crosses = (ay > py) != (by > py)
    # Horizontal edges, the padding's zero-length ones included, divide
    # by zero but never cross a pixel's ray.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = ax + (py - ay) / (by - ay) * (bx - ax)
    return np.logical_xor.reduce(crosses & (px < x_at), axis=-2)


def draw_texture(rng: np.random.Generator, octaves: int = 3) -> tuple:
    """The coarse value grids of one multi-scale noise texture; octave
    ``k`` is a ``2**k``-cell square grid."""
    return tuple(rng.random((2**k, 2**k)) for k in range(1, octaves + 1))


@lru_cache(maxsize=None)
def _bilinear(cells: int, size: int) -> tuple:
    """Upsample a ``cells``² grid to ``size``²: one (flat gather index,
    weight) pair per corner, in the order the corners are summed."""
    src = np.linspace(0, cells - 1, size)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, cells - 1)
    frac = src - i0
    near, far = (i0, 1 - frac), (i1, frac)
    return tuple(
        (rows[:, None] * cells + cols, np.outer(row_weight, col_weight))
        for (rows, row_weight), (cols, col_weight)
        in product((near, far), repeat=2)
    )


def render_textures(draws: list[tuple], size: int) -> np.ndarray:
    """Cheap multi-scale value noise in [0, 1], ``(rows, size, size)``
    float32: each octave's grid bilinearly upsampled, at half the
    amplitude of the octave before."""
    texture = np.zeros((len(draws), size, size), dtype=np.float64)
    amplitude = 1.0
    total = 0.0
    for grids in zip(*draws):
        flat = np.stack(grids).reshape(len(grids), -1)
        (index, weight), *corners = _bilinear(len(grids[0]), size)
        rows = flat[:, index] * weight
        for index, weight in corners:
            rows += flat[:, index] * weight
        texture += amplitude * rows
        total += amplitude
        amplitude *= 0.5
    return (texture / total).astype(np.float32)

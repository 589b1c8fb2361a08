"""Fixed-point (Q-format) arithmetic helpers.

The deployment pipeline expresses every float scale as an integer
multiplier plus an arithmetic right shift — the only form of "multiply by
a fraction" available on an integer-only Cortex-M0.  These helpers are the
single source of truth for that conversion.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError


def quantize_multiplier(
    scale: float, mult_bits: int = 15, max_shift: int = 31
) -> tuple[int, int]:
    """Express ``scale`` as ``mult / 2**shift`` with ``mult < 2**mult_bits``.

    Returns the ``(mult, shift)`` pair maximizing precision subject to the
    kernel's constraints (``mult`` must fit a signed 16-bit load and the
    shift must fit the ``ASRI`` immediate).  Scale must be positive:
    a non-positive requantization scale has no integer representation.
    """
    if scale <= 0.0 or not np.isfinite(scale):
        raise QuantizationError(f"scale must be positive, got {scale}")
    shift = max_shift
    mult = round(scale * (1 << shift))
    while mult >= (1 << mult_bits) and shift > 0:
        shift -= 1
        mult = round(scale * (1 << shift))
    if mult >= (1 << mult_bits):
        raise QuantizationError(f"scale {scale} too large for fixed point")
    if mult == 0:
        raise QuantizationError(f"scale {scale} underflows fixed point")
    return mult, shift


def quantize_multipliers_shared_shift(
    scales: np.ndarray, mult_bits: int = 15, max_shift: int = 31
) -> tuple[np.ndarray, int]:
    """Vector variant with one shared shift (the kernel's per-layer ASRI).

    The shift is chosen for the *largest* scale; smaller scales lose a bit
    of precision rather than forcing per-neuron shifts the kernel cannot
    express.
    """
    scales = np.asarray(scales, dtype=np.float64)
    if scales.size == 0:
        raise QuantizationError("empty scale vector")
    if (scales <= 0.0).any() or not np.isfinite(scales).all():
        raise QuantizationError("all scales must be positive and finite")
    _, shift = quantize_multiplier(float(scales.max()), mult_bits, max_shift)
    mults = np.round(scales * (1 << shift)).astype(np.int64)
    if (mults >= (1 << mult_bits)).any():
        raise QuantizationError("shared shift left a multiplier too large")
    # A tiny scale may round to zero under the shared shift; clamp to the
    # smallest representable value so the neuron keeps its sign.
    mults = np.maximum(mults, 1)
    return mults.astype(np.int16), shift


def requantize(
    acc: np.ndarray, mult: np.ndarray | int, shift: int
) -> np.ndarray:
    """The kernel's requantization: ``(acc * mult) >> shift`` (floor)."""
    acc = np.asarray(acc, dtype=np.int64)
    product = acc * np.asarray(mult, dtype=np.int64)
    return product >> shift

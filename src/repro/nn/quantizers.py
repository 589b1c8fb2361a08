"""Straight-through-estimator ternary quantization (the Larq substitute).

Training keeps full-precision *latent* weights; every forward pass
quantizes them to {-1, 0, +1} and uses only the quantized values, while the
backward pass passes gradients straight through (clipped to the latent
range).  This is the paper's third adjacency strategy (§3.2,
"quantization-aware training") and the mechanism Larq's ``SteTern``
quantizer implements.

The threshold Δ is fixed: larger thresholds force more zeros, which is
how the sparsity sweeps (Figure 1's grid search, the sparsity ablation)
and the search's threshold axis control density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Latent weights live in [-CLIP, CLIP]; gradients vanish outside (STE clip).
LATENT_CLIP = 1.0


@dataclass(frozen=True)
class TernaryQuantizer:
    """STE ternarizer with a fixed threshold Δ."""

    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.threshold) < LATENT_CLIP:
            raise ConfigurationError(
                f"fixed threshold must be in [0, {LATENT_CLIP}), "
                f"got {self.threshold}"
            )

    def quantize(self, latent: np.ndarray) -> np.ndarray:
        """Forward pass: map latent weights to int8 ternary values."""
        delta = float(self.threshold)
        ternary = np.zeros(latent.shape, dtype=np.int8)
        ternary[latent > delta] = 1
        ternary[latent < -delta] = -1
        return ternary

    def grad_mask(self, latent: np.ndarray) -> np.ndarray:
        """Backward pass: STE mask, 1 where |latent| ≤ clip else 0.

        Outside the clip interval the quantized value can no longer change,
        so passing gradient through would only push the latent weight
        further out; the mask kills it (standard BinaryNet/Larq behaviour).
        """
        return (np.abs(latent) <= LATENT_CLIP).astype(np.float32)

    def clip_latent(self, latent: np.ndarray) -> np.ndarray:
        """Post-update projection of latent weights onto [-clip, clip]."""
        return np.clip(latent, -LATENT_CLIP, LATENT_CLIP)

    def sparsity(self, latent: np.ndarray) -> float:
        """Fraction of zero connections under the current threshold."""
        ternary = self.quantize(latent)
        return float((ternary == 0).mean())

"""Post-training int8/int16 quantization and fixed-point helpers."""

from repro.quantize.fixed_point import (
    quantize_multiplier,
    quantize_multipliers_shared_shift,
    requantize,
)
from repro.quantize.ptq import (
    CALIBRATION_HEADROOM,
    QuantizedModel,
    quantize_model,
    ternarize_float_model,
)

__all__ = [
    "CALIBRATION_HEADROOM",
    "QuantizedModel",
    "quantize_model",
    "ternarize_float_model",
    "quantize_multiplier",
    "quantize_multipliers_shared_shift",
    "requantize",
]

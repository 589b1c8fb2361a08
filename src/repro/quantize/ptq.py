"""Post-training quantization: trained float model → integer kernel specs.

The paper's deployment flow (§5.1): train with fake quantization, then
quantize to int8 and export to the custom inference engine.  This module
performs that export for all three architectures:

- **Neuro-C**: the adjacency is already ternary; the per-neuron scale
  ``w_j`` becomes a per-neuron fixed-point multiplier (the kernels' walked
  ``mult`` array) and the bias is expressed in accumulator units.
- **TNN** (no ``w_j``): identical, except a single per-layer multiplier
  carries the activation rescaling — this is exactly the <1 ms / <0.5 KB
  delta that Figure 8b/8c measures.
- **Dense MLP**: weights are quantized to int8 with a per-tensor scale;
  batch normalization, when present, is folded into the dense weights
  first (possible for float weights — and impossible for ternary ones,
  which is the paper's §3.4 argument for ``w_j``).

Calibration runs the float model over a sample of training data to pick
activation scales with headroom; the resulting specs are guaranteed (for
inputs within calibrated range) to avoid int32 overflow, which
:mod:`repro.kernels.ref` verifies on every forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.kernels.ref import model_forward, model_predict
from repro.kernels.spec import LayerKernelSpec
from repro.nn.layers import (
    BN_EPSILON,
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    NeuroCLayer,
    ReLULayer,
)
from repro.nn.model import Sequential
from repro.quantize.fixed_point import (
    quantize_multiplier,
    quantize_multipliers_shared_shift,
)

#: Headroom multiplier on calibrated activation maxima: inputs somewhat
#: outside the calibration range still avoid overflow / range violations.
CALIBRATION_HEADROOM = 1.25
#: Final-layer logits have no saturation path (they feed an argmax and may
#: be negative), so they get a larger range margin instead.
FINAL_LOGIT_HEADROOM = 2.0


@dataclass(frozen=True)
class _Stage:
    """A deployable unit: weighted layer + folded BN + optional ReLU."""

    kind: str                 # "dense" | "neuroc" | "tnn"
    weights: np.ndarray       # float dense weights or int8 ternary adjacency
    bias: np.ndarray          # float
    neuron_scale: np.ndarray | None  # Neuro-C's w_j (float), else None
    relu: bool


def _fold_batchnorm(
    weights: np.ndarray, bias: np.ndarray, bn: BatchNormLayer
) -> tuple[np.ndarray, np.ndarray]:
    """Fold inference-time BN into the preceding dense layer."""
    inv_std = 1.0 / np.sqrt(bn.running_var + BN_EPSILON)
    factor = bn.gamma.value * inv_std
    folded_w = weights * factor[None, :]
    folded_b = (bias - bn.running_mean) * factor + bn.beta.value
    return folded_w.astype(np.float32), folded_b.astype(np.float32)


def _extract_stages(model: Sequential) -> list[_Stage]:
    stages: list[_Stage] = []
    layers = list(model.layers)
    i = 0
    while i < len(layers):
        layer = layers[i]
        i += 1
        if isinstance(layer, DropoutLayer):
            continue  # identity at inference
        if isinstance(layer, NeuroCLayer):
            kind = "neuroc" if layer.use_scale else "tnn"
            weights = layer.ternary_adjacency()
            bias = layer.bias.value.copy()
            scale = (
                layer.scale.value.copy() if layer.scale is not None else None
            )
        elif isinstance(layer, DenseLayer):
            kind = "dense"
            weights = layer.weight.value.copy()
            bias = layer.bias.value.copy()
            scale = None
        else:
            raise QuantizationError(
                f"cannot deploy layer {type(layer).__name__}: only dense, "
                "Neuro-C, dropout, batch-norm and ReLU layers are "
                "deployable"
            )
        relu = False
        while i < len(layers):
            follower = layers[i]
            if isinstance(follower, DropoutLayer):
                i += 1
            elif isinstance(follower, BatchNormLayer):
                if kind != "dense":
                    # The paper's §3.4 point: BN cannot fold into ternary
                    # weights, so ternary models must not carry it.
                    raise QuantizationError(
                        "batch normalization cannot be folded into ternary "
                        "weights; Neuro-C uses per-neuron scaling instead"
                    )
                weights, bias = _fold_batchnorm(weights, bias, follower)
                i += 1
            elif isinstance(follower, ReLULayer):
                relu = True
                i += 1
                break
            else:
                break
        stages.append(_Stage(kind, weights, bias, scale, relu))
    if not stages:
        raise QuantizationError("model has no deployable layers")
    return stages


def _stage_float_forward(
    stage: _Stage, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Float forward of one folded stage (calibration path).

    Returns ``(s, y)``: the raw pre-scale accumulator ``S_j = Σ a·x`` (or
    ``Σ w·x`` for dense) and the stage output — the two quantities the
    quantizer needs to bound the integer accumulator and pick the output
    scale.
    """
    s = x @ stage.weights.astype(np.float32)
    if stage.kind == "dense":
        z = s + stage.bias
    elif stage.neuron_scale is not None:
        z = s * stage.neuron_scale + stage.bias
    else:
        z = s + stage.bias
    y = np.maximum(z, 0.0) if stage.relu else z
    return s, y


@dataclass
class QuantizedModel:
    """Integer model: kernel specs plus the input quantization contract."""

    specs: list[LayerKernelSpec]
    input_scale: float
    act_width: int

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Float features → integer activations the first layer expects."""
        q = np.round(np.asarray(x, dtype=np.float64) / self.input_scale)
        lo, hi = self.specs[0].act_in_range()
        return np.clip(q, lo, hi).astype(np.int64)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Integer logits for float inputs (reference backend)."""
        return model_forward(self.specs, self.quantize_input(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return model_predict(self.specs, self.quantize_input(x))

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(y)).mean())

    @property
    def n_in(self) -> int:
        return self.specs[0].n_in

    @property
    def n_out(self) -> int:
        return self.specs[-1].n_out


def ternarize_float_model(
    model: Sequential,
    threshold: float = 0.84,
    supports: list[np.ndarray] | None = None,
) -> Sequential:
    """Project a trained *float* model onto the Neuro-C form (PTQ, §5.1).

    This is the search engine's low-fidelity stage-2 proxy: instead of
    training with fake quantization (QAT), take a short-budget float net
    and post-hoc ternarize each folded dense stage —

    - adjacency ``a_ij = sign(w_ij) · [|w_ij| > δ]`` with ``δ`` the
      per-layer ``threshold``-quantile of in-support weight magnitudes,
      so the surviving density is ``1 - threshold`` — the expected
      density of the STE quantizer at the same threshold on its
      uniformly-initialized latents, transferred to float weights;
    - per-neuron scale ``w_j`` = mean ``|w_ij|`` over the surviving
      connections of neuron ``j`` (the TWN-optimal scale for a given
      support), so Eq. 1 approximates the dense product;
    - bias carried over unchanged (batch norm, when present, is folded
      into the dense weights first by :func:`_extract_stages`).

    ``supports`` (optional, one boolean ``(n_in, n_out)`` mask per
    weighted stage) restricts connectivity to a fixed design-time support
    — the §3.2 fixed strategies — so the proxy prices the same topology
    the QAT run would train.  Every neuron keeps at least its strongest
    in-support connection, so no layer dies before calibration.

    The result is a frozen-adjacency Sequential that
    :func:`quantize_model` exports like any trained Neuro-C model.
    """
    if not 0.0 <= threshold < 1.0:
        raise QuantizationError(
            f"ternarization threshold must be in [0, 1), got {threshold}"
        )
    stages = _extract_stages(model)
    if supports is not None and len(supports) != len(stages):
        raise QuantizationError(
            f"{len(supports)} support masks for {len(stages)} weighted "
            "stages"
        )

    layers: list = []
    for index, stage in enumerate(stages):
        weights = stage.weights.astype(np.float32)
        if stage.kind != "dense":
            raise QuantizationError(
                "ternarize_float_model expects a float (dense) model; "
                f"stage {index} is already {stage.kind}"
            )
        magnitude = np.abs(weights)
        if supports is not None:
            support = np.asarray(supports[index], dtype=bool)
            if support.shape != weights.shape:
                raise QuantizationError(
                    f"stage {index}: support shape {support.shape} != "
                    f"{weights.shape}"
                )
            magnitude = np.where(support, magnitude, 0.0)
        mass = magnitude[magnitude > 0.0]
        if mass.size == 0:
            raise QuantizationError(
                f"stage {index} has no weight mass inside its support"
            )
        delta = float(np.quantile(mass, threshold))
        keep = magnitude > delta
        # Dead-neuron guard: a column losing every connection would turn
        # the neuron into a constant — keep its strongest in-support
        # weight instead so downstream calibration never sees a dead
        # layer.
        dead = ~keep.any(axis=0)
        if dead.any():
            strongest = magnitude.argmax(axis=0)
            keep[strongest[dead], np.flatnonzero(dead)] = (
                magnitude[strongest[dead], np.flatnonzero(dead)] > 0.0
            )
        adjacency = (np.sign(weights) * keep).astype(np.int8)

        kept_mass = np.where(keep, magnitude, 0.0)
        counts = keep.sum(axis=0)
        scale = np.divide(
            kept_mass.sum(axis=0),
            np.maximum(counts, 1),
            dtype=np.float32,
        )
        scale[counts == 0] = 1.0  # disconnected neuron: bias-only

        layer = NeuroCLayer(
            n_in=weights.shape[0],
            n_out=weights.shape[1],
            rng=np.random.default_rng(0),  # unused with fixed adjacency
            fixed_adjacency=adjacency,
            use_scale=True,
        )
        layer.scale.value = scale.astype(np.float32)
        layer.bias.value = stage.bias.astype(np.float32)
        layers.append(layer)
        if stage.relu:
            layers.append(ReLULayer())
    return Sequential(layers, name=f"{model.name}-ptq-ternary")


def quantize_model(
    model: Sequential,
    calibration_x: np.ndarray,
    act_width: int = 1,
) -> QuantizedModel:
    """Export a trained model to integer kernel specs (int8 PTQ).

    ``act_width`` selects 8- or 16-bit activations between layers (the
    paper's "16-bit integers or 8-bit integers when possible").
    """
    if act_width not in (1, 2):
        raise QuantizationError(f"act_width must be 1 or 2, got {act_width}")
    calibration_x = np.asarray(calibration_x, dtype=np.float32)
    if calibration_x.ndim != 2 or len(calibration_x) == 0:
        raise QuantizationError("calibration data must be a non-empty 2-D "
                                "array")
    stages = _extract_stages(model)
    act_max = float((1 << (8 * act_width - 1)) - 1)

    # Input scale from the calibration data range.
    in_peak = float(np.abs(calibration_x).max())
    if in_peak == 0.0:
        raise QuantizationError("calibration data is all zeros")
    input_scale = in_peak / act_max

    specs: list[LayerKernelSpec] = []
    x_float = calibration_x
    scale_in = input_scale
    for index, stage in enumerate(stages):
        is_last = index == len(stages) - 1
        s_float, y_float = _stage_float_forward(stage, x_float)

        if stage.kind == "dense":
            w_peak = float(np.abs(stage.weights).max())
            if w_peak == 0.0:
                raise QuantizationError("dense stage has all-zero weights")
            w_scale = w_peak / 127.0
            w_int = np.clip(
                np.round(stage.weights / w_scale), -127, 127
            ).astype(np.int8)
            acc_scale = w_scale * scale_in
            matrix_int = w_int
        else:
            acc_scale = scale_in
            matrix_int = stage.weights.astype(np.int8)

        if is_last and stage.kind != "neuroc":
            # Dense / TNN final layer: raw 32-bit accumulators (plus the
            # bias in accumulator units) feed the argmax directly — a
            # uniform positive scale preserves it.
            bias_int = np.round(stage.bias / acc_scale).astype(np.int64)
            if (np.abs(bias_int) > (1 << 30)).any():
                raise QuantizationError("bias does not fit the accumulator")
            spec = LayerKernelSpec(
                n_in=matrix_int.shape[0], n_out=matrix_int.shape[1],
                act_in_width=act_width, act_out_width=4,
                bias=bias_int.astype(np.int32), relu=stage.relu,
                mult=None, shift=0,
                weights=matrix_int if stage.kind == "dense" else None,
                adjacency=None if stage.kind == "dense" else matrix_int,
            )
            specs.append(spec)
            break

        # Requantize into the next activation scale (or, for a final
        # Neuro-C layer, into an int16 logit scale — the per-neuron w_j
        # must be applied either way, and a shared positive output scale
        # preserves the argmax).  Per Eq. 1, the bias is expressed in
        # *output* units and added after the scale.
        y_peak = float(np.abs(y_float).max())
        if y_peak == 0.0:
            raise QuantizationError(
                f"stage {index} produced all-zero activations during "
                "calibration (dead layer)"
            )
        out_max = 32767.0 if is_last else act_max
        out_width = 2 if is_last else act_width
        headroom = FINAL_LOGIT_HEADROOM if is_last else CALIBRATION_HEADROOM
        scale_out = headroom * y_peak / out_max

        # Cap the multiplier width so acc · mult provably fits int32 for
        # any input within the calibrated (head-roomed) range.
        acc_int_peak = (
            CALIBRATION_HEADROOM * float(np.abs(s_float).max()) / acc_scale
        )
        cap = int(np.floor(np.log2((2**31 - 1) / max(acc_int_peak, 1.0))))
        mult_bits = min(15, cap)
        if mult_bits < 2:
            raise QuantizationError(
                f"stage {index}: accumulator peak {acc_int_peak:.0f} "
                "leaves no headroom for a requantization multiplier; "
                "use wider activations or retrain with smaller inputs"
            )

        if stage.kind == "neuroc":
            requant_scales = stage.neuron_scale * acc_scale / scale_out
            signs = np.sign(requant_scales)
            signs[signs == 0] = 1.0
            mults, shift = quantize_multipliers_shared_shift(
                np.abs(requant_scales) + 1e-12, mult_bits=mult_bits
            )
            mult: np.ndarray | int = (mults * signs).astype(np.int16)
        else:
            mult, shift = quantize_multiplier(
                acc_scale / scale_out, mult_bits=mult_bits
            )

        bias_int = np.round(stage.bias / scale_out).astype(np.int64)
        spec = LayerKernelSpec(
            n_in=matrix_int.shape[0], n_out=matrix_int.shape[1],
            act_in_width=act_width, act_out_width=out_width,
            bias=bias_int.astype(np.int32), relu=stage.relu,
            mult=mult, shift=shift,
            weights=matrix_int if stage.kind == "dense" else None,
            adjacency=None if stage.kind == "dense" else matrix_int,
        )
        specs.append(spec)
        if is_last:
            break
        x_float = y_float
        scale_in = scale_out

    quantized = QuantizedModel(specs=specs, input_scale=input_scale,
                               act_width=act_width)
    # End-to-end audit: the reference backend raises on any int32 overflow
    # or activation-range violation, so one calibration pass proves the
    # chosen scales safe for in-range inputs.
    model_forward(quantized.specs, quantized.quantize_input(calibration_x))
    return quantized

"""Layer kernel specifications shared by reference, codegen, and cost model.

A :class:`LayerKernelSpec` is the contract between the quantization
pipeline and the inference backends: everything a kernel needs to compute
one layer with integer arithmetic, independent of *how* (NumPy reference,
generated ISA program, or analytical cost formula).

Integer semantics (mirrored exactly by all three backends), following the
paper's Eq. 1 order ``o_j = f(w_j · Σ_i a_ij·o_i + b_j)``:

- activations are signed 8- or 16-bit; accumulators are 32-bit,
- ``acc_j = Σ_pos x_i − Σ_neg x_i`` (Neuro-C) or
  ``acc_j = Σ_i w_ij · x_i`` (dense) — the bias is *not* in the
  accumulator,
- with requantization: ``z_j = ((acc_j · mult_j) >> shift) + bias_j``
  (arithmetic/floor shift); ``mult`` is per-neuron for Neuro-C (the
  quantized ``w_j``) or a single per-layer value for the TNN and dense
  baselines.  Without (``mult is None``): ``z_j = acc_j + bias_j``,
- optional ReLU on ``z_j`` (branchless in generated code) — after the
  bias, exactly as ``f`` wraps Eq. 1,
- no saturation: export chooses ``mult``/``shift`` so the calibrated range
  fits the output width and the product fits int32 by construction
  (audited by :mod:`repro.kernels.ref` on every forward pass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Supported activation widths in bytes (signed). 4 = raw 32-bit accumulator
#: (used by final layers feeding an argmax, where no requantization runs).
ACT_WIDTHS = (1, 2, 4)

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


@dataclass(frozen=True)
class LayerKernelSpec:
    """One layer's integer-inference contract.

    Exactly one of ``weights`` (dense) / ``adjacency`` (ternary) is set.
    """

    n_in: int
    n_out: int
    act_in_width: int
    act_out_width: int
    bias: np.ndarray                      # int32, shape (n_out,)
    relu: bool
    mult: np.ndarray | int | None = None  # int16 per-neuron, int scalar, or
                                          # None (raw accumulator out)
    shift: int = 0
    weights: np.ndarray | None = None     # int8, (n_in, n_out), dense only
    adjacency: np.ndarray | None = None   # int8 ternary, (n_in, n_out)

    def __post_init__(self) -> None:
        if self.act_in_width not in (1, 2):
            raise ConfigurationError(
                f"act_in_width must be 1 or 2, got {self.act_in_width}"
            )
        if self.act_out_width not in ACT_WIDTHS:
            raise ConfigurationError(
                f"act_out_width must be one of {ACT_WIDTHS}, "
                f"got {self.act_out_width}"
            )
        if (self.weights is None) == (self.adjacency is None):
            raise ConfigurationError(
                "exactly one of weights/adjacency must be provided"
            )
        matrix = self.weights if self.weights is not None else self.adjacency
        if matrix.dtype != np.int8:
            # The reference's exact float64 product relies on |w| <= 2^7.
            raise ConfigurationError(
                f"matrix dtype must be int8, got {matrix.dtype}"
            )
        if matrix.shape != (self.n_in, self.n_out):
            raise ConfigurationError(
                f"matrix shape {matrix.shape} != ({self.n_in}, {self.n_out})"
            )
        if self.bias.shape != (self.n_out,):
            raise ConfigurationError(
                f"bias shape {self.bias.shape} != ({self.n_out},)"
            )
        if self.mult is None and self.act_out_width != 4:
            raise ConfigurationError(
                "raw accumulator output requires act_out_width=4"
            )
        if self.mult is not None and self.act_out_width == 4:
            raise ConfigurationError(
                "requantized output must be 1 or 2 bytes wide"
            )
        if isinstance(self.mult, np.ndarray):
            if self.mult.shape != (self.n_out,):
                raise ConfigurationError(
                    f"per-neuron mult shape {self.mult.shape} != "
                    f"({self.n_out},)"
                )
        if not 0 <= self.shift <= 31:
            raise ConfigurationError(f"shift must be in [0, 31]: {self.shift}")

    @property
    def is_dense(self) -> bool:
        return self.weights is not None

    @property
    def per_neuron_mult(self) -> bool:
        return isinstance(self.mult, np.ndarray)

    @property
    def ternary_matrix(self) -> np.ndarray:
        if self.adjacency is None:
            raise ConfigurationError("dense layer has no ternary adjacency")
        return self.adjacency

    def act_in_range(self) -> tuple[int, int]:
        bits = 8 * self.act_in_width
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1

    def act_out_range(self) -> tuple[int, int]:
        bits = 8 * self.act_out_width
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def make_neuroc_spec(
    adjacency: np.ndarray,
    bias: np.ndarray,
    mult: np.ndarray | int | None,
    shift: int = 0,
    act_in_width: int = 1,
    act_out_width: int = 1,
    relu: bool = True,
) -> LayerKernelSpec:
    """Convenience constructor for ternary (Neuro-C / TNN) layers."""
    adjacency = np.asarray(adjacency, dtype=np.int8)
    return LayerKernelSpec(
        n_in=adjacency.shape[0],
        n_out=adjacency.shape[1],
        act_in_width=act_in_width,
        act_out_width=act_out_width,
        bias=np.asarray(bias, dtype=np.int32),
        relu=relu,
        mult=mult,
        shift=shift,
        adjacency=adjacency,
    )


def make_dense_spec(
    weights: np.ndarray,
    bias: np.ndarray,
    mult: int | None,
    shift: int = 0,
    act_in_width: int = 1,
    act_out_width: int = 1,
    relu: bool = True,
) -> LayerKernelSpec:
    """Convenience constructor for dense int8-weight layers."""
    weights = np.asarray(weights, dtype=np.int8)
    return LayerKernelSpec(
        n_in=weights.shape[0],
        n_out=weights.shape[1],
        act_in_width=act_in_width,
        act_out_width=act_out_width,
        bias=np.asarray(bias, dtype=np.int32),
        relu=relu,
        mult=mult,
        shift=shift,
        weights=weights,
    )

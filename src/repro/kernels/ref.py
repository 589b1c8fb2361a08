"""Bit-exact NumPy reference for every inference kernel.

These functions define the *numeric* ground truth: the generated ISA
programs must produce identical outputs (asserted by the validation tests),
and the float training stack is compared against them with a tolerance.

Arithmetic is int64 with explicit int32-overflow checks — the reference
detects rather than emulates wraparound, because the deployment pipeline
guarantees (via calibration) that no intermediate overflows.

The one exception is the matrix product, which runs on float64 operands
through the BLAS NumPy links (NumPy multiplies int64 matrices in a
generic loop, several times slower) and casts the result back to int64.
It is still exact:

- after the input audit |x| <= 2^15, because activations are 1 or 2
  bytes;
- the matrix is int8 (checked by :class:`LayerKernelSpec`), so
  |w| <= 2^7;
- so every partial sum is an integer with |acc| <= n_in * 2^22, which
  is below 2^53 for any n_in < 2^31;
- float64 represents every integer below 2^53 exactly, so every partial
  sum is exact, whatever order BLAS adds them in.

The requantization product, the shift, the bias and the clamp stay in
int64.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError
from repro.kernels.spec import INT32_MAX, INT32_MIN, LayerKernelSpec


#: Message tail of the int32 audits; ``{lo}``/``{hi}`` are the observed
#: extremes.
_INT32_OVERFLOW = " overflows int32: range [{lo}, {hi}]"


def _raise_outside(
    values: np.ndarray, lo: int, hi: int, message: str
) -> np.ndarray:
    """The raising audit: ``QuantizationError`` when any value of the
    whole array leaves ``[lo, hi]``; returns ``values`` otherwise."""
    if values.size:
        vmin, vmax = int(values.min()), int(values.max())
        if vmin < lo or vmax > hi:
            raise QuantizationError(message.format(lo=vmin, hi=vmax))
    return values


def _product(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``x @ matrix`` as int64, exact on float64 BLAS for operands
    within the bound in the module docstring."""
    return (x.astype(np.float64) @ matrix.astype(np.float64)).astype(
        np.int64
    )


def _as_input(spec: LayerKernelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if x.shape[-1] != spec.n_in:
        raise QuantizationError(
            f"input has {x.shape[-1]} features, spec expects {spec.n_in}"
        )
    return x


def _layer(spec: LayerKernelSpec, x: np.ndarray, audit) -> np.ndarray:
    """One layer per Eq. 1: accumulate, requantize, add bias, ReLU.

    ``audit(values, lo, hi, message)`` checks one intermediate against
    ``[lo, hi]`` and returns ``values`` with every row it has rejected
    zeroed, so the product only sees operands within its exactness
    bound.  This is the one place the reference's limits and the order
    of its checks live; the raising audit of :func:`layer_forward` and
    the per-row audit of :func:`model_forward_batch` both run through
    it.
    """
    lo, hi = spec.act_in_range()
    x = audit(x, lo, hi,
              f"input activations outside {spec.act_in_width}-byte range")
    acc = _product(x, spec.weights if spec.is_dense else spec.adjacency)
    audit(acc, INT32_MIN, INT32_MAX, "accumulator" + _INT32_OVERFLOW)
    if spec.mult is None:
        z = acc + spec.bias.astype(np.int64)
    else:
        mult = (
            spec.mult.astype(np.int64)
            if isinstance(spec.mult, np.ndarray)
            else np.int64(spec.mult)
        )
        product = acc * mult
        audit(product, INT32_MIN, INT32_MAX,
              "requantization product" + _INT32_OVERFLOW)
        # Arithmetic shift == floor division by 2^shift.
        z = (product >> spec.shift) + spec.bias.astype(np.int64)
    audit(z, INT32_MIN, INT32_MAX, "post-bias value" + _INT32_OVERFLOW)
    if spec.relu:
        z = np.maximum(z, 0)
    lo, hi = spec.act_out_range()
    if spec.relu and spec.mult is not None and spec.act_out_width in (1, 2):
        # Requantized ReLU outputs saturate at the top of their storage
        # width (the kernels' branchless clamp); the bottom is 0 via ReLU.
        z = np.minimum(z, hi)
    else:
        audit(z, lo, hi,
              f"output activations outside {spec.act_out_width}-byte "
              "range [{lo}, {hi}]")
    return z.astype(np.int64)


def layer_forward(spec: LayerKernelSpec, x: np.ndarray) -> np.ndarray:
    """Integer forward pass of one layer (dense or ternary).

    ``x`` is ``(n_in,)`` or ``(batch, n_in)`` of integers within the input
    activation range.  Returns int64 in the output range.

    Every sparse encoding computes this same function — the formats differ
    only in traversal order and storage, which cannot change an integer
    sum.  The encoding-specific behaviour (cycle counts, flash bytes) lives
    in the ``count_*`` cost models and :mod:`repro.deploy.size`.
    """
    return _layer(spec, _as_input(spec, x), _raise_outside)


def model_forward(
    specs: list[LayerKernelSpec], x: np.ndarray
) -> np.ndarray:
    """Chain layer specs; returns the final layer's output (logits)."""
    out = np.asarray(x, dtype=np.int64)
    for spec in specs:
        out = layer_forward(spec, out)
    return out


def model_forward_batch(
    specs: list[LayerKernelSpec], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`model_forward` over ``(batch, n_in)`` rows, audited per row.

    Returns ``(logits, ok)``: ``ok[i]`` is true exactly when
    ``model_forward(specs, x[i])`` would not raise, and then
    ``logits[i]`` equals its result.  The logits of other rows are
    unspecified.  A feature-count mismatch still raises, since it holds
    for every row.
    """
    out = np.asarray(x, dtype=np.int64)
    ok = np.ones(len(out), dtype=bool)

    def audit(values, lo, hi, message):
        ok[:] &= (values.min(axis=1) >= lo) & (values.max(axis=1) <= hi)
        return values if ok.all() else np.where(ok[:, None], values, 0)

    for spec in specs:
        out = _layer(spec, _as_input(spec, out), audit)
    return out, ok


def model_predict(specs: list[LayerKernelSpec], x: np.ndarray) -> np.ndarray:
    """Class prediction: argmax over the final integer outputs."""
    logits = model_forward(specs, x)
    return np.argmax(logits, axis=-1)


# ---------------------------------------------------------------------------
# Convolution via im2col (Figure 2's comparison subject)
# ---------------------------------------------------------------------------


def im2col(x: np.ndarray, image_size: int, kernel_size: int) -> np.ndarray:
    """Flatten S×S receptive fields into a (S², M²) matrix (valid conv).

    ``x`` is a flattened single-channel image of ``image_size²`` ints.
    Column ``q = r·M + c`` holds the receptive field at output position
    (r, c), matching Eq. 4 of the paper with C = 1.
    """
    n, s = image_size, kernel_size
    if x.shape != (n * n,):
        raise QuantizationError(
            f"expected flattened {n}x{n} image, got shape {x.shape}"
        )
    if not 1 <= s <= n:
        raise QuantizationError(f"kernel size {s} invalid for image {n}")
    m = n - s + 1
    image = x.reshape(n, n)
    columns = np.empty((s * s, m * m), dtype=np.int64)
    for r in range(m):
        for c in range(m):
            columns[:, r * m + c] = image[r : r + s, c : c + s].reshape(-1)
    return columns


def conv2d_forward(
    x: np.ndarray,
    image_size: int,
    kernels: np.ndarray,   # int8, shape (K, S, S)
    bias: np.ndarray,      # int32, shape (K,)
    relu: bool = True,
) -> np.ndarray:
    """Valid convolution as im2col + GEMM, returning (K, M²) accumulators.

    This is the computation the paper's Fig. 2 CNN kernel performs on the
    MCU; the generated program must match it bit-exactly.  Its product
    has the layer product's operand bounds: int8 kernels and an image
    within the 2-byte activation range.
    """
    kernels = np.asarray(kernels)
    if kernels.dtype != np.int8:
        raise QuantizationError(
            f"conv kernels must be int8, got {kernels.dtype}"
        )
    k, s, s2 = kernels.shape
    if s != s2:
        raise QuantizationError("kernels must be square")
    image = _raise_outside(
        np.asarray(x, dtype=np.int64), -(1 << 15), (1 << 15) - 1,
        "conv input outside 2-byte range: range [{lo}, {hi}]",
    )
    columns = im2col(image, image_size, s)
    weights = kernels.reshape(k, s * s)  # Eq. 5: K × (C·S²)
    acc = _product(weights, columns) + np.asarray(
        bias, dtype=np.int64
    )[:, None]
    _raise_outside(acc, INT32_MIN, INT32_MAX,
                   "conv accumulator" + _INT32_OVERFLOW)
    if relu:
        acc = np.maximum(acc, 0)
    return acc


def conv_macc_count(
    k: int, c: int, s: int, m: int
) -> int:
    """Eq. 7: MACCs of one conv layer."""
    return k * c * s * s * m * m


def fc_macc_count(n_in: int, n_out: int) -> int:
    """Eq. 8: MACCs of one dense layer."""
    return n_in * n_out

"""Persistence for quantized models (the deployable artifact).

A :class:`~repro.quantize.ptq.QuantizedModel` is the unit a downstream
user ships: everything the inference engine needs, nothing the trainer
needed.  This module stores one as a single ``.npz`` file with an
explicit, versioned schema — so exported models survive library upgrades
or fail loudly, never silently.

Schema (``npz`` keys)::

    __meta__                 int32 [version, n_layers, act_width]
    __input_scale__          float64 scalar
    layer{i}_kind            "dense" | "ternary"  (uint8-coded)
    layer{i}_matrix          int8 weights or adjacency
    layer{i}_bias            int32
    layer{i}_mult            int16 vector / int32 scalar / absent
    layer{i}_flags           int32 [act_in_w, act_out_w, relu, shift,
                                    mult_kind]
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.spec import LayerKernelSpec
from repro.quantize.ptq import QuantizedModel

FORMAT_VERSION = 1

_KIND_DENSE = 0
_KIND_TERNARY = 1

_MULT_NONE = 0
_MULT_SCALAR = 1
_MULT_PER_NEURON = 2

#: What reading a truncated, corrupt, junk or ill-typed ``.npz`` raises,
#: from :mod:`zipfile` (a corrupt header can claim an unsupported version
#: or an encrypted member), numpy's loader, or the schema checks below.
_MALFORMED = (
    zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError,
    EOFError, OSError, KeyError, IndexError, TypeError, ValueError,
)


def save_quantized_model(model: QuantizedModel, path: str | Path) -> Path:
    """Write ``model`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays: dict[str, np.ndarray] = {
        "__meta__": np.array(
            [FORMAT_VERSION, len(model.specs), model.act_width],
            dtype=np.int32,
        ),
        "__input_scale__": np.array(model.input_scale, dtype=np.float64),
    }
    for i, spec in enumerate(model.specs):
        prefix = f"layer{i}_"
        if spec.is_dense:
            kind = _KIND_DENSE
            matrix = spec.weights
        else:
            kind = _KIND_TERNARY
            matrix = spec.adjacency
        arrays[prefix + "kind"] = np.array([kind], dtype=np.uint8)
        arrays[prefix + "matrix"] = matrix.astype(np.int8)
        arrays[prefix + "bias"] = spec.bias.astype(np.int32)
        if spec.mult is None:
            mult_kind = _MULT_NONE
        elif spec.per_neuron_mult:
            mult_kind = _MULT_PER_NEURON
            arrays[prefix + "mult"] = spec.mult.astype(np.int16)
        else:
            mult_kind = _MULT_SCALAR
            arrays[prefix + "mult"] = np.array([spec.mult], dtype=np.int32)
        arrays[prefix + "flags"] = np.array(
            [
                spec.act_in_width,
                spec.act_out_width,
                int(spec.relu),
                spec.shift,
                mult_kind,
            ],
            dtype=np.int32,
        )
    np.savez(path, **arrays)
    return path


def load_quantized_model(path: str | Path) -> QuantizedModel:
    """Load a model written by :func:`save_quantized_model`.

    A missing, truncated, junk or ill-typed file raises
    :class:`ConfigurationError` naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no model file at {path}")
    try:
        return _read_model(path)
    except _MALFORMED as exc:
        raise ConfigurationError(
            f"{path} is not a readable Neuro-C model file "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _read_model(path: Path) -> QuantizedModel:
    # np.load(path) leaks its file handle when the zip is malformed.
    with open(path, "rb") as handle, np.load(handle) as data:
        if "__meta__" not in data:
            raise ConfigurationError(f"{path} is not a Neuro-C model file")
        version, n_layers, act_width = (int(v) for v in data["__meta__"])
        if version != FORMAT_VERSION:
            raise ConfigurationError(
                f"model format v{version} is not supported "
                f"(this library reads v{FORMAT_VERSION})"
            )
        input_scale = float(data["__input_scale__"])
        specs: list[LayerKernelSpec] = []
        for i in range(n_layers):
            prefix = f"layer{i}_"
            try:
                kind = int(data[prefix + "kind"][0])
                matrix = data[prefix + "matrix"]
                bias = data[prefix + "bias"]
                flags = data[prefix + "flags"]
            except KeyError as exc:
                raise ConfigurationError(
                    f"{path} is truncated: missing {exc}"
                ) from None
            act_in_w, act_out_w, relu, shift, mult_kind = (
                int(v) for v in flags
            )
            mult: np.ndarray | int | None
            if mult_kind == _MULT_NONE:
                mult = None
            elif mult_kind == _MULT_SCALAR:
                mult = int(data[prefix + "mult"][0])
            elif mult_kind == _MULT_PER_NEURON:
                mult = data[prefix + "mult"].astype(np.int16)
            else:
                raise ConfigurationError(
                    f"{path}: unknown multiplier kind {mult_kind}"
                )
            try:
                spec = LayerKernelSpec(
                    n_in=matrix.shape[0],
                    n_out=matrix.shape[1],
                    act_in_width=act_in_w,
                    act_out_width=act_out_w,
                    bias=bias.astype(np.int32),
                    relu=bool(relu),
                    mult=mult,
                    shift=shift,
                    weights=matrix if kind == _KIND_DENSE else None,
                    adjacency=matrix if kind == _KIND_TERNARY else None,
                )
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}: layer {i}: {exc}") \
                    from None
            if not spec.is_dense and np.any((matrix < -1) | (matrix > 1)):
                raise ConfigurationError(
                    f"{path}: layer {i} is ternary but has entries "
                    "outside {-1, 0, 1}"
                )
            specs.append(spec)
    return QuantizedModel(
        specs=specs, input_scale=input_scale, act_width=act_width
    )

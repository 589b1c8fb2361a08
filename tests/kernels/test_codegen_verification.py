"""Every codegen entry point funnels its program through verification.

Layer kernels reach ``assert_static_discipline`` through the frame's
``layer_image`` (``codegen_common``); conv calls it itself."""

import numpy as np
import pytest

from repro.kernels import (
    codegen_cnn,
    codegen_common,
    codegen_dense,
    codegen_sparse,
)
from repro.kernels.codegen_cnn import ConvKernelSpec
from repro.kernels.codegen_sparse import SPARSE_FORMATS
from repro.kernels.spec import make_dense_spec, make_neuroc_spec


@pytest.fixture()
def recorder(monkeypatch):
    """Replace assert_static_discipline wherever it is called with a spy."""
    calls = []

    def spy(program, memory):
        calls.append((program.name, memory))
        return program

    for module in (codegen_common, codegen_cnn):
        monkeypatch.setattr(module, "assert_static_discipline", spy)
    return calls


def _dense_spec(rng):
    return make_dense_spec(
        rng.integers(-20, 20, (16, 8)).astype(np.int8),
        rng.integers(-5, 5, 8).astype(np.int32),
        mult=None, act_out_width=4, relu=True,
    )


def _ternary_spec(rng):
    adjacency = rng.integers(-1, 2, (16, 8)).astype(np.int8)
    return make_neuroc_spec(
        adjacency, rng.integers(-5, 5, 8).astype(np.int32),
        mult=np.full(8, 3, np.int32), shift=6,
    )


def test_dense_generator_verifies(recorder, rng):
    image = codegen_dense.generate_dense(_dense_spec(rng))
    assert [name for name, _ in recorder] == [image.program.name]


def test_unrolled_generator_verifies(recorder, rng):
    image = codegen_dense.generate_dense(_dense_spec(rng), unroll=4)
    assert [name for name, _ in recorder] == [image.program.name]


@pytest.mark.parametrize("fmt", SPARSE_FORMATS)
def test_sparse_generators_verify(recorder, rng, fmt):
    image = codegen_sparse.generate_sparse(_ternary_spec(rng), fmt)
    assert [name for name, _ in recorder] == [image.program.name]
    assert recorder[0][1] is image.memory


def test_conv_generator_verifies(recorder, rng):
    spec = ConvKernelSpec(
        image_size=8, kernel_size=3, num_filters=2,
        weights=rng.integers(-10, 10, (2, 3, 3)).astype(np.int8),
        bias=rng.integers(-5, 5, 2).astype(np.int32),
    )
    image = codegen_cnn.generate_conv(spec)
    assert [name for name, _ in recorder] == [image.program.name]

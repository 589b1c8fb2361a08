"""Every kernel encoding must be bit-exact on the fastpath engine.

This is the second half of the fastpath acceptance bar: the fuzzer in
``tests/mcu/test_fastpath.py`` covers random control flow, this file
covers the *real* generated kernels — dense, unrolled-dense, and all
four sparse encodings — comparing cycles, instruction counts, op
counts, registers, and the decoded output vector between engines.
"""

import numpy as np
import pytest

from repro.core.adjacency import clustered_adjacency
from repro.kernels.codegen_dense import generate_dense
from repro.kernels.codegen_sparse import SPARSE_FORMATS, generate_sparse
from repro.kernels.ref import layer_forward
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.fastpath import FastCPU, make_cpu


def _spec(n_in=64, n_out=12, density=0.15, seed=0):
    rng = np.random.default_rng(seed)
    adjacency = clustered_adjacency(n_in, n_out, density, rng)
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _dense_spec(n_in=48, n_out=12, seed=0):
    rng = np.random.default_rng(seed)
    return make_dense_spec(
        weights=rng.integers(-8, 9, (n_in, n_out)).astype(np.int8),
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=rng.integers(50, 200, n_out).astype(np.int16),
        shift=10, act_in_width=2, act_out_width=2, relu=True,
    )


def _input(spec, seed=1):
    rng = np.random.default_rng(seed)
    lo, hi = spec.act_in_range()
    return rng.integers(lo, hi + 1, spec.n_in).astype(np.int64)


def _build(generate, spec):
    """Two identical images of one kernel, one per engine run."""
    images = []
    for _ in range(2):
        image = generate(spec)
        images.append(image)
    return images


def _assert_bit_exact(generate, spec, seed=1):
    x = _input(spec, seed)
    image_fast, image_ref = _build(generate, spec)
    for image in (image_fast, image_ref):
        image.write_input(x)
    fast = image_fast.run(engine="fastpath")
    ref = image_ref.run(engine="interpreter")
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    assert fast.registers == ref.registers
    assert fast.op_counts == ref.op_counts
    out_fast = image_fast.read_output()
    out_ref = image_ref.read_output()
    np.testing.assert_array_equal(out_fast, out_ref)
    np.testing.assert_array_equal(out_fast, layer_forward(spec, x))
    for region_fast, region_ref in zip(
        image_fast.memory.regions, image_ref.memory.regions
    ):
        assert region_fast.loads == region_ref.loads
        assert region_fast.stores == region_ref.stores
        assert region_fast.bytes_loaded == region_ref.bytes_loaded
        assert region_fast.bytes_stored == region_ref.bytes_stored
    return fast


class TestKernelEncodingsBitExact:
    def test_dense(self):
        _assert_bit_exact(generate_dense, _dense_spec())

    @pytest.mark.parametrize("unroll", [2, 4])
    def test_dense_unrolled(self, unroll):
        _assert_bit_exact(
            lambda spec: generate_dense(spec, unroll=unroll),
            _dense_spec(),
        )

    @pytest.mark.parametrize("format_name", SPARSE_FORMATS)
    def test_sparse(self, format_name):
        _assert_bit_exact(
            lambda spec: generate_sparse(spec, format_name), _spec()
        )

    @pytest.mark.parametrize("format_name", SPARSE_FORMATS)
    def test_sparse_denser_matrix(self, format_name):
        # A denser matrix changes the encodings' inner-loop structure
        # (longer runs, fuller blocks); re-check exactness there too.
        _assert_bit_exact(
            lambda spec: generate_sparse(spec, format_name),
            _spec(density=0.5, seed=3),
            seed=4,
        )

    def test_kernels_translate_rather_than_fall_back(self):
        # The speedup claim is meaningless if kernels silently fall back
        # to the interpreter: assert the translator accepts them.
        cases = [
            (generate_dense, _dense_spec()),
            (lambda spec: generate_dense(spec, unroll=4),
             _dense_spec()),
        ] + [
            ((lambda spec, f=f: generate_sparse(spec, f)), _spec())
            for f in SPARSE_FORMATS
        ]
        for make, spec in cases:
            image = make(spec)
            image.write_input(_input(spec))
            cpu = make_cpu(image.memory, engine="fastpath")
            assert isinstance(cpu, FastCPU)
            cpu.run(image.program)
            assert cpu.last_engine == "fastpath"

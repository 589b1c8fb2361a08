"""The three-backend validation: reference == interpreter == cost model.

These tests are the foundation the benchmark suite rests on: every kernel
is executed on the ISA interpreter and must produce bit-identical outputs
to the NumPy reference AND exactly the cycle count the analytical model
predicts.  Randomized matrices (fixed seeds + hypothesis) cover width
promotions, empty columns, and both activation widths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import ref
from repro.kernels.codegen_cnn import ConvKernelSpec, count_conv, \
    generate_conv
from repro.kernels.codegen_dense import count_dense, generate_dense
from repro.kernels.codegen_sparse import (
    SPARSE_FORMATS,
    count_sparse,
    generate_sparse,
)
from repro.kernels.spec import make_dense_spec, make_neuroc_spec
from repro.mcu.board import STM32F072RB

COSTS = STM32F072RB.costs


def random_neuroc_spec(rng, n_in=None, n_out=None, aw=None, relu=None,
                       per_neuron=None, ow=2):
    n_in = n_in or int(rng.integers(3, 120))
    n_out = n_out or int(rng.integers(1, 24))
    density = rng.uniform(0.05, 0.5)
    adjacency = rng.choice(
        [-1, 0, 1], size=(n_in, n_out),
        p=[density / 2, 1 - density, density / 2],
    ).astype(np.int8)
    per_neuron = rng.random() < 0.5 if per_neuron is None else per_neuron
    mult = (
        rng.integers(30, 200, n_out).astype(np.int16)
        if per_neuron else int(rng.integers(30, 200))
    )
    return make_neuroc_spec(
        adjacency=adjacency,
        bias=rng.integers(-100, 100, n_out).astype(np.int32),
        mult=mult,
        shift=9,
        act_in_width=aw or int(rng.choice([1, 2])),
        act_out_width=ow,
        relu=bool(rng.random() < 0.5) if relu is None else relu,
    )


def assert_three_way(spec, fmt, x, **kwargs):
    expected = ref.layer_forward(spec, x)
    image = generate_sparse(spec, fmt, **kwargs)
    image.write_input(x)
    result = image.run()
    got = image.read_output()
    assert np.array_equal(got, expected), f"{fmt}: wrong output"
    analytic = count_sparse(spec, fmt, **kwargs)
    assert result.cycles == analytic.cycles(COSTS), f"{fmt}: cycle mismatch"
    assert result.instructions == analytic.instructions


@pytest.mark.parametrize("fmt", SPARSE_FORMATS)
@pytest.mark.parametrize("seed", range(4))
def test_sparse_kernels_three_way(fmt, seed):
    rng = np.random.default_rng(seed)
    spec = random_neuroc_spec(rng)
    x = rng.integers(-60, 60, spec.n_in)
    kwargs = {"block_size": int(rng.choice([32, 64, 256]))} \
        if fmt == "block" else {}
    assert_three_way(spec, fmt, x, **kwargs)


@pytest.mark.parametrize("fmt", SPARSE_FORMATS)
def test_sparse_kernels_with_empty_columns(fmt):
    rng = np.random.default_rng(11)
    adjacency = np.zeros((30, 6), dtype=np.int8)
    adjacency[[2, 7], 0] = 1       # cols 1..4 empty, col 5 negative only
    adjacency[[3, 9, 20], 5] = -1
    spec = make_neuroc_spec(
        adjacency, rng.integers(-50, 50, 6).astype(np.int32),
        rng.integers(30, 100, 6).astype(np.int16), shift=8,
        act_in_width=2, act_out_width=2, relu=True,
    )
    x = rng.integers(-40, 40, 30)
    assert_three_way(spec, fmt, x)


@pytest.mark.parametrize("fmt", SPARSE_FORMATS)
def test_sparse_kernels_asymmetric_polarity_widths(fmt):
    # pos fits 8-bit everything while neg promotes to 16-bit: the
    # regression where kernels read the wrong width for one polarity.
    rng = np.random.default_rng(5)
    adjacency = np.zeros((400, 4), dtype=np.int8)
    adjacency[:3, :] = 1                      # few positive, low indices
    neg_rows = rng.choice(400, 300, replace=False)
    adjacency[neg_rows, 1] = -1               # many negative, high indices
    spec = make_neuroc_spec(
        adjacency, rng.integers(-50, 50, 4).astype(np.int32),
        int(rng.integers(30, 90)), shift=8,
        act_in_width=1, act_out_width=2, relu=False,
    )
    x = rng.integers(-30, 30, 400)
    assert_three_way(spec, fmt, x)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sparse_kernels_property(data):
    matrix = data.draw(
        hnp.arrays(
            np.int8,
            st.tuples(st.integers(1, 40), st.integers(1, 8)),
            elements=st.sampled_from([-1, 0, 1]),
        )
    )
    n_in, n_out = matrix.shape
    rng = np.random.default_rng(0)
    spec = make_neuroc_spec(
        matrix, rng.integers(-20, 20, n_out).astype(np.int32),
        rng.integers(20, 60, n_out).astype(np.int16), shift=8,
        act_in_width=2, act_out_width=2,
        relu=data.draw(st.booleans()),
    )
    x = np.asarray(
        data.draw(
            st.lists(
                st.integers(-50, 50), min_size=n_in, max_size=n_in
            )
        )
    )
    for fmt in SPARSE_FORMATS:
        assert_three_way(spec, fmt, x)


@pytest.mark.parametrize("aw,ow,relu,mult", [
    (1, 2, True, 40),
    (2, 4, False, None),
    (2, 1, True, 25),
])
def test_dense_kernel_three_way(aw, ow, relu, mult):
    rng = np.random.default_rng(3)
    n_in, n_out = 23, 7
    spec = make_dense_spec(
        rng.integers(-30, 30, (n_in, n_out)).astype(np.int8),
        rng.integers(-80, 80, n_out).astype(np.int32),
        mult, shift=9 if mult else 0,
        act_in_width=aw, act_out_width=ow, relu=relu,
    )
    x = rng.integers(-50, 50, n_in)
    expected = ref.layer_forward(spec, x)
    image = generate_dense(spec)
    image.write_input(x)
    result = image.run()
    assert np.array_equal(image.read_output(), expected)
    analytic = count_dense(spec)
    assert result.cycles == analytic.cycles(COSTS)


def test_dense_kernel_without_inputs():
    """A layer with no inputs stores the epilogue of an empty sum: the
    rolled kernel runs no MACC for it."""
    rng = np.random.default_rng(3)
    spec = make_dense_spec(
        np.zeros((0, 7), np.int8), rng.integers(-80, 80, 7).astype(np.int32),
        40, shift=9, act_in_width=1, act_out_width=2,
    )
    x = np.zeros(0, np.int64)
    image = generate_dense(spec)
    image.write_input(x)
    result = image.run()
    assert np.array_equal(image.read_output(), ref.layer_forward(spec, x))
    assert result.cycles == count_dense(spec).cycles(COSTS)


def test_dense_kernel_rejects_sparse_spec():
    from repro.errors import ConfigurationError
    rng = np.random.default_rng(0)
    spec = random_neuroc_spec(rng)
    with pytest.raises(ConfigurationError):
        generate_dense(spec)


@pytest.mark.parametrize("n,s,k,relu", [(8, 3, 2, True), (10, 5, 3, False)])
def test_conv_kernel_three_way(n, s, k, relu):
    rng = np.random.default_rng(7)
    spec = ConvKernelSpec(
        image_size=n, kernel_size=s, num_filters=k,
        weights=rng.integers(-10, 10, (k, s, s)).astype(np.int8),
        bias=rng.integers(-50, 50, k).astype(np.int32),
        relu=relu,
    )
    x = rng.integers(-40, 50, n * n)
    expected = ref.conv2d_forward(x, n, spec.weights, spec.bias,
                                  relu=relu).reshape(-1)
    image = generate_conv(spec)
    image.write_input(x)
    result = image.run()
    assert np.array_equal(image.read_output(), expected)
    analytic = count_conv(spec)
    assert result.cycles == analytic.cycles(COSTS)
    assert result.instructions == analytic.instructions


def test_latency_is_input_independent():
    """§3: 'execution time is entirely predictable ... no data-dependent
    variation'.  Two very different inputs must cost identical cycles."""
    rng = np.random.default_rng(13)
    spec = random_neuroc_spec(rng, n_in=60, n_out=10, aw=1, relu=True,
                              per_neuron=True)
    for fmt in SPARSE_FORMATS:
        cycles = set()
        for fill in (0, 1, -1):
            image = generate_sparse(spec, fmt)
            image.write_input(np.full(60, fill))
            cycles.add(image.run().cycles)
        assert len(cycles) == 1, fmt

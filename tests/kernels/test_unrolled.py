"""Unrolled dense kernel: three-way validation and trade-off properties."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import ref
from repro.kernels.codegen_dense import count_dense, generate_dense
from repro.kernels.spec import make_dense_spec
from repro.mcu.board import STM32F072RB

COSTS = STM32F072RB.costs


def _spec(rng, n_in=40, n_out=6):
    return make_dense_spec(
        rng.integers(-30, 30, (n_in, n_out)).astype(np.int8),
        rng.integers(-50, 50, n_out).astype(np.int32),
        40, shift=9, act_in_width=1, act_out_width=2, relu=True,
    )


@pytest.mark.parametrize("n_in", [7, 16, 23, 40])
@pytest.mark.parametrize("unroll", [1, 2, 4, 8])
def test_three_way_validation(n_in, unroll, rng):
    spec = _spec(rng, n_in=n_in)
    x = rng.integers(-50, 50, n_in)
    image = generate_dense(spec, unroll=unroll)
    image.write_input(x)
    result = image.run()
    assert np.array_equal(image.read_output(),
                          ref.layer_forward(spec, x))
    analytic = count_dense(spec, unroll)
    assert result.cycles == analytic.cycles(COSTS)
    assert result.instructions == analytic.instructions


def test_unroll_one_matches_plain_dense_cycles(rng):
    spec = _spec(rng)
    # The default is the rolled kernel: one element per iteration.
    plain = generate_dense(spec)
    unrolled = generate_dense(spec, unroll=1)
    assert plain.program.name == unrolled.program.name == "dense_kernel"
    assert plain.program.instructions == unrolled.program.instructions
    assert count_dense(spec, unroll=1) == count_dense(spec)
    assert generate_dense(spec, unroll=2).program.name == "dense_unrolled_x2"


def test_unrolling_trades_flash_for_cycles(rng):
    spec = _spec(rng, n_in=64, n_out=16)
    cycles, text = [], []
    for unroll in (1, 2, 4, 8):
        image = generate_dense(spec, unroll=unroll)
        cycles.append(count_dense(spec, unroll).cycles(COSTS))
        text.append(image.program.code_size_bytes())
    assert cycles == sorted(cycles, reverse=True)  # more unroll -> faster
    assert text == sorted(text)                    # ... and bigger code


def test_remainder_loop_handles_non_divisible_sizes(rng):
    spec = _spec(rng, n_in=13)  # 13 = 3*4 + 1
    x = rng.integers(-50, 50, 13)
    image = generate_dense(spec, unroll=4)
    image.write_input(x)
    image.run()
    assert np.array_equal(image.read_output(),
                          ref.layer_forward(spec, x))


def test_invalid_unroll(rng):
    spec = _spec(rng)
    with pytest.raises(ConfigurationError):
        generate_dense(spec, unroll=0)
    with pytest.raises(ConfigurationError):
        count_dense(spec, unroll=-1)

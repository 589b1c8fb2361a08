"""``model_forward_batch`` audits each row exactly as ``model_forward``.

Over random dense and ternary layer chains, with biases and multipliers
pushed past the int16 and int32 limits and inputs past the first
layer's range, a row the batched forward passes has the logits
``model_forward`` gives it alone, and its ``ok`` mask is false exactly
on the rows where ``model_forward`` raises ``QuantizationError``.

The reference's product runs on float64; at the operand limits
(activations at -32768 and 32767, dense weights at -128 and 127, fan-in
up to 4,096) it must equal the int64 product kept here as the oracle.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.kernels.ref import (
    layer_forward,
    model_forward,
    model_forward_batch,
)
from repro.kernels.spec import (
    INT32_MAX,
    INT32_MIN,
    make_dense_spec,
    make_neuroc_spec,
)

#: Bias offsets that land intermediates around the int16 output limit
#: and the int32 post-bias limit.
EDGES = (0, 120, 32_700, INT32_MAX - 2_000)


@st.composite
def chains(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_layers = draw(st.integers(1, 3))
    n_in = draw(st.integers(1, 8))
    in_width = draw(st.sampled_from([1, 2]))
    specs = []
    for index in range(n_layers):
        last = index == n_layers - 1
        n_out = draw(st.integers(1, 6))
        raw = last and draw(st.booleans())
        out_width = 4 if raw else draw(st.sampled_from([1, 2]))
        if raw:
            mult = None
        elif draw(st.booleans()):
            mult = draw(st.integers(1, 32_767))
        else:
            mult = rng.integers(1, 32_768, n_out).astype(np.int16)
        edge = draw(st.sampled_from(EDGES))
        bias = rng.integers(-200, 200, n_out) + edge * rng.choice(
            [-1, 0, 1], n_out
        )
        kwargs = dict(
            bias=bias.astype(np.int32), mult=mult,
            shift=draw(st.integers(0, 12)), act_in_width=in_width,
            act_out_width=out_width, relu=draw(st.booleans()),
        )
        if draw(st.booleans()):
            specs.append(make_dense_spec(
                rng.integers(-128, 128, (n_in, n_out)), **kwargs
            ))
        else:
            specs.append(make_neuroc_spec(
                rng.choice([-1, 0, 1], (n_in, n_out)), **kwargs
            ))
        n_in, in_width = n_out, out_width
    lo, hi = specs[0].act_in_range()
    # Up to twice the input range, so the first audit fires too.
    rows = rng.integers(2 * lo, 2 * hi + 1,
                        (draw(st.integers(1, 8)), specs[0].n_in))
    return specs, rows


@settings(max_examples=300, deadline=None)
@given(chain=chains())
def test_batch_audit_equals_row_by_row(chain):
    specs, rows = chain
    logits, ok = model_forward_batch(specs, rows)
    assert ok.shape == (len(rows),)
    for i, row in enumerate(rows):
        try:
            expected = model_forward(specs, row)
        except QuantizationError:
            assert not ok[i]
        else:
            assert ok[i]
            assert np.array_equal(logits[i], expected)


def test_chains_reach_both_verdicts():
    """The generator is not vacuous: it yields passing and rejected
    rows, and rejections at every audit an in-range accumulator can
    reach (the accumulator's own audit needs over 500 inputs)."""
    verdicts, messages = set(), set()

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(chain=chains())
    def collect(chain):
        specs, rows = chain
        for row in rows:
            try:
                model_forward(specs, row)
                verdicts.add(True)
            except QuantizationError as exc:
                verdicts.add(False)
                messages.add(str(exc).split(" ")[0])

    collect()
    assert verdicts == {True, False}
    assert {"input", "requantization", "post-bias", "output"} <= messages


def test_feature_count_mismatch_still_raises():
    spec = make_neuroc_spec(np.ones((3, 2)), np.zeros(2), mult=None,
                            act_out_width=4, relu=False)
    with pytest.raises(QuantizationError, match="features"):
        model_forward_batch([spec], np.zeros((4, 5), dtype=np.int64))


@st.composite
def raw_products(draw):
    """One raw-accumulator layer with operands at their limits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_in = draw(st.sampled_from([1, 2, 64, 1000, 4096]))
    n_out = draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 2]))
    lo = -(1 << (8 * width - 1))
    hi = -lo - 1
    # Every entry is a limit, except a drawn share of random ones.
    limits = rng.choice([lo, hi], (draw(st.integers(1, 4)), n_in))
    rows = np.where(
        rng.random(limits.shape) < draw(st.floats(0.0, 1.0)),
        rng.integers(lo, hi + 1, limits.shape), limits,
    )
    if draw(st.booleans()):
        matrix = rng.choice([-128, 127], (n_in, n_out))
        spec = make_dense_spec(matrix, np.zeros(n_out), mult=None,
                               act_in_width=width, act_out_width=4,
                               relu=False)
    else:
        matrix = rng.choice([-1, 0, 1], (n_in, n_out))
        spec = make_neuroc_spec(matrix, np.zeros(n_out), mult=None,
                                act_in_width=width, act_out_width=4,
                                relu=False)
    return spec, rows, matrix


@settings(max_examples=200, deadline=None)
@given(case=raw_products())
def test_product_equals_int64_oracle_at_the_limits(case):
    spec, rows, matrix = case
    expected = rows.astype(np.int64) @ matrix.astype(np.int64)
    fits = (expected.min(axis=1) >= INT32_MIN) & (
        expected.max(axis=1) <= INT32_MAX
    )
    logits, ok = model_forward_batch([spec], rows)
    assert np.array_equal(ok, fits)
    assert np.array_equal(logits[fits], expected[fits])
    for row, want, row_fits in zip(rows, expected, fits):
        if row_fits:
            assert np.array_equal(layer_forward(spec, row), want)
        else:
            with pytest.raises(QuantizationError, match="accumulator"):
                layer_forward(spec, row)


def test_product_oracle_reaches_both_verdicts():
    """At fan-in 4,096, same-signed limits overflow int32 and
    alternating ones do not."""
    matrix = np.full((4096, 1), 127)
    spec = make_dense_spec(matrix, np.zeros(1), mult=None,
                           act_in_width=2, act_out_width=4, relu=False)
    rows = np.stack([
        np.full(4096, 32767), np.tile([32767, -32768], 2048),
    ])
    logits, ok = model_forward_batch([spec], rows)
    assert ok.tolist() == [False, True]
    assert logits[1, 0] == 2048 * 127 * -1


def test_rows_near_int64_limits_are_rejected_without_warnings():
    rng = np.random.default_rng(5)
    specs = [
        make_dense_spec(rng.integers(-128, 128, (64, 16)),
                        rng.integers(-50, 50, 16), mult=3, shift=10,
                        act_in_width=2, act_out_width=2),
        make_neuroc_spec(rng.choice([-1, 0, 1], (16, 4)), np.zeros(4),
                         mult=None, act_in_width=2, act_out_width=4,
                         relu=False),
    ]
    rows = np.stack([
        np.full(64, 2**62), np.full(64, -(2**62)),
        np.tile([2**62 - 1, -(2**62)], 32), rng.integers(-900, 900, 64),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        logits, ok = model_forward_batch(specs, rows)
    assert ok.tolist() == [False, False, False, True]
    assert np.array_equal(logits[3], model_forward(specs, rows[3]))

"""``model_forward_batch`` audits each row exactly as ``model_forward``.

Over random dense and ternary layer chains, with biases and multipliers
pushed past the int16 and int32 limits and inputs past the first
layer's range, a row the batched forward passes has the logits
``model_forward`` gives it alone, and its ``ok`` mask is false exactly
on the rows where ``model_forward`` raises ``QuantizationError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.kernels.ref import model_forward, model_forward_batch
from repro.kernels.spec import INT32_MAX, make_dense_spec, make_neuroc_spec

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

    @settings(max_examples=300, deadline=None, database=None)
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

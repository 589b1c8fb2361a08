"""Property test: quantized inference tracks the float model.

For random small Neuro-C models (untrained — weights straight from
initialization), the int8 pipeline's logits must induce (nearly) the same
ranking as the float forward pass on in-range inputs.  This catches scale
bookkeeping errors that accuracy-level tests on trained models can mask
(a trained model's margins hide small systematic biases).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import NeuroCLayer, ReLULayer
from repro.nn.model import Sequential
from repro.nn.quantizers import TernaryQuantizer
from repro.quantize.ptq import quantize_model


#: About a third of a fresh U(-1, 1) latent matrix ternarizes to zero.
QUANTIZER = TernaryQuantizer(0.35)


@st.composite
def small_models(draw):
    n_in = draw(st.integers(4, 24))
    hidden = draw(st.integers(3, 16))
    n_out = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    model = Sequential(
        [
            NeuroCLayer(n_in, hidden, rng, quantizer=QUANTIZER),
            ReLULayer(),
            NeuroCLayer(hidden, n_out, rng, quantizer=QUANTIZER),
        ]
    )
    calibration = rng.uniform(0.0, 1.0, (64, n_in)).astype(np.float32)
    return model, calibration, rng


def _float_forward(model, x):
    return model.forward(x.astype(np.float32), training=False)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=small_models())
def test_quantized_logits_correlate_with_float(data):
    model, calibration, rng = data
    quantized = quantize_model(model, calibration, act_width=1)
    x = rng.uniform(0.0, 1.0, (16, calibration.shape[1])).astype(
        np.float32
    )
    float_logits = _float_forward(model, x)
    int_logits = quantized.forward(x).astype(np.float64)

    for i in range(len(x)):
        f = float_logits[i]
        q = int_logits[i]
        # Rows whose float logits are nearly tied carry no ranking
        # signal (quantization noise legitimately reorders them).
        if np.ptp(f) < 0.05 * max(float(np.abs(f).max()), 1e-6):
            continue
        if np.ptp(q) == 0:
            continue
        correlation = np.corrcoef(f, q)[0, 1]
        assert correlation > 0.9, (f, q)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=small_models())
def test_quantized_argmax_usually_matches_float(data):
    model, calibration, rng = data
    quantized = quantize_model(model, calibration, act_width=2)
    x = rng.uniform(0.0, 1.0, (32, calibration.shape[1])).astype(
        np.float32
    )
    float_logits = _float_forward(model, x)
    int_pred = quantized.predict(x)

    # Count only confident rows: where the float margin between the top
    # two classes is meaningful relative to the logit scale.
    scale = max(float(np.abs(float_logits).max()), 1e-6)
    agree = total = 0
    for i in range(len(x)):
        order = np.sort(float_logits[i])
        if (order[-1] - order[-2]) < 0.05 * scale:
            continue
        total += 1
        agree += int(int_pred[i] == int(np.argmax(float_logits[i])))
    if total:
        assert agree / total >= 0.9

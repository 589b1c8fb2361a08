"""Differential check: the reference backend vs the device path.

``QuantizedModel.predict`` runs the NumPy reference instead of the
generated kernels; the two must agree bit-for-bit on
every sparse encoding (the generated kernels differ per format, the
semantics must not) and on dense layers.  Logits are compared too, not
just argmax labels — a near-miss in the accumulator path can leave
labels intact on easy rows while still being wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.deploy.artifact import DeployedModel
from repro.kernels.codegen_sparse import SPARSE_FORMATS

BATCH = 24


@pytest.fixture(scope="module")
def batch(digits_small):
    return digits_small.x_test[:BATCH]


def _deployed_per_format(trained, format_name):
    return DeployedModel(trained.quantized, format_name=format_name)


class TestSparseEncodings:
    @pytest.mark.parametrize("format_name", SPARSE_FORMATS)
    def test_labels_agree(self, trained_neuroc, batch, format_name):
        model = _deployed_per_format(trained_neuroc, format_name)
        fast = model.quantized.predict(batch)
        slow = model.predict(batch)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("format_name", SPARSE_FORMATS)
    def test_logits_agree(self, trained_neuroc, batch, format_name):
        model = _deployed_per_format(trained_neuroc, format_name)
        reference = model.quantized.forward(batch)
        device = np.stack(
            [model.infer(row).logits for row in batch]
        )
        assert np.array_equal(device, reference)


class TestDenseLayers:
    def test_labels_agree(self, trained_mlp, batch):
        model = DeployedModel(trained_mlp.quantized)
        fast = model.quantized.predict(batch)
        slow = model.predict(batch)
        assert np.array_equal(fast, slow)

    def test_logits_agree(self, trained_mlp, batch):
        model = DeployedModel(trained_mlp.quantized)
        reference = model.quantized.forward(batch)
        device = np.stack(
            [model.infer(row).logits for row in batch]
        )
        assert np.array_equal(device, reference)

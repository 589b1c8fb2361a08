"""Typed input validation on the deployed-model inference API.

ISSUE-2 satellite: ``infer()``/``predict()`` must reject malformed
inputs up front with :class:`~repro.errors.InvalidInputError` instead of
surfacing a raw numpy failure from deep inside the memory map, and
``predict()`` must agree bit-for-bit with the reference backend,
``QuantizedModel.predict``.
"""

import numpy as np
import pytest

from repro.deploy.deployer import deploy
from repro.errors import InvalidInputError


@pytest.fixture(scope="module")
def deployed(trained_neuroc):
    return deploy(trained_neuroc.quantized).model


class TestInferValidation:
    def test_wrong_feature_count(self, deployed):
        with pytest.raises(InvalidInputError, match="features"):
            deployed.infer(np.zeros(17, dtype=np.float32))

    def test_non_numeric_dtype(self, deployed):
        with pytest.raises(InvalidInputError, match="dtype"):
            deployed.infer(np.array(["a"] * 64))

    def test_nan_rejected(self, deployed):
        x = np.zeros(64, dtype=np.float32)
        x[3] = np.nan
        with pytest.raises(InvalidInputError, match="NaN"):
            deployed.infer(x)

    def test_infinity_rejected(self, deployed):
        x = np.zeros(64, dtype=np.float32)
        x[0] = np.inf
        with pytest.raises(InvalidInputError):
            deployed.infer(x)

    def test_image_shaped_input_still_accepted(self, deployed,
                                               digits_small):
        flat = digits_small.x_test[0]
        image = flat.reshape(8, 8)
        assert deployed.infer(image).label == deployed.infer(flat).label


class TestPredictValidation:
    def test_batch_wrong_width(self, deployed):
        with pytest.raises(InvalidInputError, match="batch"):
            deployed.predict(np.zeros((4, 63), dtype=np.float32))

    def test_batch_must_be_2d(self, deployed):
        with pytest.raises(InvalidInputError):
            deployed.predict(np.zeros(64, dtype=np.float32))


class TestVectorizedFastPath:
    """The NumPy reference backend agrees with the device path."""

    def test_matches_on_device_path(self, deployed, digits_small):
        x = digits_small.x_test[:16]
        fast = deployed.quantized.predict(x)
        slow = deployed.predict(x)
        assert np.array_equal(fast, slow)

    def test_accuracy_paths_agree(self, deployed, digits_small):
        x, y = digits_small.x_test[:16], digits_small.y_test[:16]
        assert deployed.quantized.accuracy(x, y) == deployed.accuracy(x, y)

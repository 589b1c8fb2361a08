"""Serve-test fixtures: one small verified artifact, shared, and an
overflowing variant of it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.errors import QuantizationError
from repro.serve import ModelRegistry
from tests.conftest import overflowing


@pytest.fixture(scope="session")
def serve_registry():
    return ModelRegistry()


@pytest.fixture(scope="session")
def small_trained(digits_small):
    """A deliberately tiny model so interpreted inference stays fast."""
    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=(16,), threshold=0.85,
        name="serve-small", seed=0,
    )
    return train_neuroc(config, digits_small, epochs=10, lr=0.01)


@pytest.fixture(scope="session")
def small_artifact(serve_registry, small_trained):
    return serve_registry.register(small_trained.quantized)


@pytest.fixture(scope="session")
def overflowing_artifact(serve_registry, small_trained, digits_small):
    """The small model, overflowing on about half of the test rows."""
    return serve_registry.register(
        overflowing(small_trained.quantized, digits_small.x_test)
    )


def audit_rejects(artifact, x) -> bool:
    """Whether the reference's range audits reject input ``x``."""
    try:
        artifact.deployed.quantized.forward(x)
    except QuantizationError:
        return True
    return False


def spoil_inputs(trace):
    """Make every 7th input NaN and every 11th (from the 4th) 7 features
    long: inputs ``infer`` refuses with two different messages."""
    for request in trace[::7]:
        request.x = np.full(request.x.shape, np.nan)
    for request in trace[3::11]:
        request.x = request.x[:7]
    return trace

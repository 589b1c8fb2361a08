"""Serve-test fixtures: one small verified artifact, shared."""

from __future__ import annotations

import pytest

from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.serve import ModelRegistry


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

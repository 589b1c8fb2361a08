"""Cluster-test fixtures: tiny artifacts.

Three session-scoped artifacts share one registry: a *base* model the
clusters boot on, a *good* candidate (same architecture, different
seed — identical cycle cost, so the deploy SLO probe passes) and a
*slow* candidate (much wider layers — ~10x cycles per inference, so the
cycles-ratio SLO discriminator trips and forces a rollback).
"""

from __future__ import annotations

import pytest

from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.serve import ModelRegistry, ServeConfig


@pytest.fixture(scope="session")
def cluster_registry():
    return ModelRegistry()


def _train(digits_small, name, seed, hidden=(16,)):
    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=hidden, threshold=0.85,
        name=name, seed=seed,
    )
    return train_neuroc(config, digits_small, epochs=10, lr=0.01)


@pytest.fixture(scope="session")
def base_artifact(cluster_registry, digits_small):
    trained = _train(digits_small, "cluster-base", seed=0)
    return cluster_registry.register(trained.quantized)


@pytest.fixture(scope="session")
def good_artifact(cluster_registry, digits_small):
    """Same architecture as base, different weights: cycle ratio ~1."""
    trained = _train(digits_small, "cluster-good", seed=1)
    return cluster_registry.register(trained.quantized)


@pytest.fixture(scope="session")
def slow_artifact(cluster_registry, digits_small):
    """Much wider model: the cycles-ratio SLO discriminator trips."""
    trained = _train(digits_small, "cluster-slow", seed=2,
                     hidden=(48, 48))
    return cluster_registry.register(trained.quantized)


@pytest.fixture
def small_serve_config():
    """Two devices per fleet keeps interpreted replay fast."""
    return ServeConfig(n_devices=2, max_queue_depth=32)

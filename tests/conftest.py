"""Shared fixtures: small datasets and trained models, built once,
counters of the deployed model's inference calls and of the replicas
flashed, and the overflowing model builder."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.neuroc import NeuroCConfig, train_neuroc
from repro.core.mlp import MLPConfig, train_mlp
from repro.datasets import load
from repro.deploy.artifact import DeployedModel
from repro.quantize.ptq import QuantizedModel
from repro.serve.registry import ModelArtifact


@pytest.fixture(scope="session")
def digits_small():
    """A small digits_like split shared by training-dependent tests."""
    return load("digits_like", n_train=600, n_test=200, seed=3)


@pytest.fixture(scope="session")
def trained_neuroc(digits_small):
    """One trained + quantized Neuro-C model on the small digits set."""
    config = NeuroCConfig(
        n_in=64, n_out=10, hidden=(48,), threshold=0.85,
        name="test-neuroc", seed=0,
    )
    return train_neuroc(config, digits_small, epochs=35, lr=0.01)


@pytest.fixture(scope="session")
def trained_mlp(digits_small):
    """One trained + quantized MLP baseline on the small digits set."""
    config = MLPConfig(
        n_in=64, n_out=10, hidden=(24,), dropout=0.1, name="test-mlp",
        seed=0,
    )
    return train_mlp(config, digits_small, epochs=25)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def infer_calls(monkeypatch):
    """Counts of ``DeployedModel.infer_batch`` (on ``verified``, one
    batched reference forward) and ``DeployedModel.infer`` calls."""
    counts = {"infer_batch": 0, "infer": 0}
    for name in counts:
        original = getattr(DeployedModel, name)

        def counting(self, x, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, x)

        monkeypatch.setattr(DeployedModel, name, counting)
    return counts


@pytest.fixture
def flashed(monkeypatch):
    """``(model_id, engine)`` of every ``ModelArtifact.replica`` call."""
    calls = []
    original = ModelArtifact.replica

    def counting(self, engine=None):
        calls.append((self.model_id, engine))
        return original(self, engine)

    monkeypatch.setattr(ModelArtifact, "replica", counting)
    return calls


def overflowing(quantized, rows):
    """``quantized`` with class 0's bias raised so that about half of
    ``rows`` push its logit past the int16 output range: the reference
    rejects those rows and the device wraps them."""
    last = quantized.specs[-1]
    assert last.act_out_width == 2
    logit = quantized.forward(rows)[:, 0]
    bias = last.bias.astype(np.int64)
    bias[0] += 32767 - int(np.median(logit))
    specs = [*quantized.specs[:-1],
             dataclasses.replace(last, bias=bias.astype(np.int32))]
    return QuantizedModel(specs, quantized.input_scale, quantized.act_width)

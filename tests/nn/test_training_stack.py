"""Quantizer, loss, optimizer, chance accuracy, trainer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrainingError
from repro.nn.layers import DenseLayer, Parameter, ReLULayer
from repro.nn.losses import SoftmaxCrossEntropy, softmax
from repro.nn.model import Sequential
from repro.nn.optimizers import Adam
from repro.nn.quantizers import LATENT_CLIP, TernaryQuantizer
from repro.nn.trainer import TrainConfig, Trainer, chance_accuracy


class TestTernaryQuantizer:
    def test_fixed_threshold_splits_values(self):
        quantizer = TernaryQuantizer(threshold=0.5)
        latent = np.array([-0.9, -0.4, 0.0, 0.4, 0.9], dtype=np.float32)
        assert list(quantizer.quantize(latent)) == [-1, 0, 0, 0, 1]

    def test_sparsity_tracks_threshold(self, rng):
        latent = rng.uniform(-1, 1, 1000).astype(np.float32)
        low = TernaryQuantizer(threshold=0.1).sparsity(latent)
        high = TernaryQuantizer(threshold=0.9).sparsity(latent)
        assert high > low
        assert high == pytest.approx(0.9, abs=0.05)

    def test_grad_mask_kills_out_of_clip(self):
        quantizer = TernaryQuantizer(threshold=0.5)
        latent = np.array([-2.0, -0.5, 0.5, 2.0], dtype=np.float32)
        assert list(quantizer.grad_mask(latent)) == [0.0, 1.0, 1.0, 0.0]

    def test_clip_latent(self):
        quantizer = TernaryQuantizer(threshold=0.5)
        clipped = quantizer.clip_latent(np.array([-5.0, 0.3, 5.0]))
        assert list(clipped) == [-LATENT_CLIP, 0.3, LATENT_CLIP]

    def test_invalid_thresholds(self):
        with pytest.raises(ConfigurationError):
            TernaryQuantizer(threshold=1.5)
        with pytest.raises(ConfigurationError):
            TernaryQuantizer(threshold=-0.1)


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((4, 3)).astype(np.float32)
        targets = np.array([0, 2, 1, 1])
        loss = SoftmaxCrossEntropy()
        value = loss.forward(logits, targets)
        probs = softmax(logits.astype(np.float64))
        manual = -np.log(probs[np.arange(4), targets]).mean()
        assert value == pytest.approx(manual)

    def test_cross_entropy_gradient_numeric(self, rng):
        logits = rng.standard_normal((3, 4)).astype(np.float64)
        targets = np.array([1, 0, 3])
        loss = SoftmaxCrossEntropy()
        loss.forward(logits, targets)
        analytic = loss.backward()
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                logits[i, j] += eps
                up = SoftmaxCrossEntropy().forward(logits, targets)
                logits[i, j] -= 2 * eps
                down = SoftmaxCrossEntropy().forward(logits, targets)
                logits[i, j] += eps
                assert analytic[i, j] == pytest.approx(
                    (up - down) / (2 * eps), abs=1e-4
                )

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros(3, int))


class TestOptimizers:
    def test_minimizes_quadratic(self):
        p = Parameter(np.array([5.0, -3.0], dtype=np.float32), "p")
        optimizer = Adam(lr=0.2)
        for _ in range(200):
            p.grad = 2.0 * p.value  # d/dp of ||p||^2
            optimizer.step([p])
        assert np.abs(p.value).max() < 0.05

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            Adam(lr=-1)
        with pytest.raises(ConfigurationError):
            Adam(lr=0)


class TestMetrics:
    def test_chance_accuracy(self):
        assert chance_accuracy(np.array([0, 0, 0, 1])) == 0.75


class TestTrainer:
    def _toy_task(self, rng, n=400):
        # Two informative dimensions, XOR-ish: needs the hidden layer.
        x = rng.uniform(-1, 1, (n, 4)).astype(np.float32)
        y = ((x[:, 0] * x[:, 1]) > 0).astype(np.int64)
        return x, y

    def test_learns_nonlinear_toy_task(self, rng):
        x, y = self._toy_task(rng)
        model = Sequential(
            [DenseLayer(4, 16, rng), ReLULayer(), DenseLayer(16, 2, rng)]
        )
        trainer = Trainer(model, Adam(0.01), rng=np.random.default_rng(0))
        history = trainer.fit(
            x[:300], y[:300], x[300:], y[300:], TrainConfig(epochs=60),
        )
        assert history.best_val_accuracy > 0.9
        assert history.converged

    def test_early_stopping_triggers(self, rng):
        x, y = self._toy_task(rng, n=200)
        model = Sequential([DenseLayer(4, 2, rng)])
        trainer = Trainer(model, Adam(lr=1e-6),
                          rng=np.random.default_rng(0))
        history = trainer.fit(
            x[:150], y[:150], x[150:], y[150:],
            TrainConfig(epochs=100, patience=3),
        )
        assert history.stopped_early
        assert history.epochs_run < 100

    def test_convergence_judged_on_final_epoch(self):
        from repro.nn.trainer import History
        history = History(chance=0.5)
        history.val_accuracy = [0.9, 0.5]  # spike then collapse
        assert not history.converged
        history.val_accuracy = [0.5, 0.9]
        assert history.converged

    def test_mismatched_lengths_raise(self, rng):
        model = Sequential([DenseLayer(4, 2, rng)])
        trainer = Trainer(model, Adam(0.01), np.random.default_rng(0))
        with pytest.raises(TrainingError):
            trainer.fit(np.zeros((3, 4)), np.zeros(2, int),
                        np.zeros((1, 4)), np.zeros(1, int), TrainConfig())

    def test_empty_training_set_raises(self, rng):
        model = Sequential([DenseLayer(4, 2, rng)])
        with pytest.raises(TrainingError):
            Trainer(model, Adam(0.01), np.random.default_rng(0)).fit(
                np.zeros((0, 4)), np.zeros(0, int),
                np.zeros((1, 4)), np.zeros(1, int), TrainConfig(),
            )

    def test_model_summary_mentions_layers(self, rng):
        model = Sequential(
            [DenseLayer(4, 2, rng), ReLULayer()], "toy"
        )
        text = model.summary()
        assert "DenseLayer" in text
        assert "toy" in text

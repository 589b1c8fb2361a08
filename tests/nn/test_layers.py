"""Layer forward/backward correctness, including numerical gradient checks.

The gradient checks compare analytic backward passes against central
finite differences of the loss.  For STE-quantized layers the *latent*
gradient is not the true gradient (that is the point of the STE), so those
layers are checked on scale/bias only plus STE-specific properties.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import (
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    NeuroCLayer,
    ReLULayer,
)
from repro.nn.model import Sequential
from repro.nn.quantizers import TernaryQuantizer

#: The STE quantizer of the learned-adjacency layers under test.
QUANTIZER = TernaryQuantizer(0.5)


def numerical_grad(f, value, epsilon=1e-4):
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        up = f()
        flat[i] = original - epsilon
        down = f()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * epsilon)
    return grad


class SquaredError:
    """Mean squared error: a smooth loss for the gradient checks."""

    def forward(self, predictions, targets):
        self._diff = predictions - np.asarray(targets, dtype=np.float64)
        return float(np.mean(self._diff**2))

    def backward(self):
        return (2.0 * self._diff / self._diff.size).astype(np.float32)


def loss_through(layer, x, target):
    loss = SquaredError()

    def f():
        return loss.forward(layer.forward(x, training=True), target)

    return f, loss


class TestDenseLayer:
    def test_forward_shape_and_value(self, rng):
        layer = DenseLayer(4, 3, rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out = layer.forward(x, training=False)
        assert out.shape == (5, 3)
        expected = x @ layer.weight.value + layer.bias.value
        assert np.allclose(out, expected, atol=1e-6)

    def test_weight_and_bias_gradients(self, rng):
        layer = DenseLayer(4, 3, rng)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        target = rng.standard_normal((6, 3)).astype(np.float32)
        f, loss = loss_through(layer, x, target)
        f()
        layer.weight.zero_grad()
        layer.bias.zero_grad()
        layer.backward(loss.backward())
        num_w = numerical_grad(f, layer.weight.value)
        num_b = numerical_grad(f, layer.bias.value)
        assert np.allclose(layer.weight.grad, num_w, atol=1e-3)
        assert np.allclose(layer.bias.grad, num_b, atol=1e-3)

    def test_input_gradient(self, rng):
        layer = DenseLayer(4, 3, rng)
        x = rng.standard_normal((2, 4)).astype(np.float32)
        target = rng.standard_normal((2, 3)).astype(np.float32)
        f, loss = loss_through(layer, x, target)
        f()
        grad_x = layer.backward(loss.backward())
        num_x = numerical_grad(f, x)
        assert np.allclose(grad_x, num_x, atol=1e-3)

    def test_invalid_dims(self, rng):
        with pytest.raises(ConfigurationError):
            DenseLayer(0, 3, rng)


class TestNeuroCLayer:
    def test_forward_matches_equation_one(self, rng):
        layer = NeuroCLayer(6, 4, rng, quantizer=QUANTIZER)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        out = layer.forward(x, training=False)
        adjacency = layer.ternary_adjacency().astype(np.float32)
        expected = (x @ adjacency) * layer.scale.value + layer.bias.value
        assert np.allclose(out, expected, atol=1e-6)

    def test_scale_and_bias_gradients(self, rng):
        layer = NeuroCLayer(6, 4, rng, quantizer=QUANTIZER)
        x = rng.standard_normal((5, 6)).astype(np.float32)
        target = rng.standard_normal((5, 4)).astype(np.float32)
        f, loss = loss_through(layer, x, target)
        f()
        for p in layer.params():
            p.zero_grad()
        layer.backward(loss.backward())
        num_scale = numerical_grad(f, layer.scale.value)
        num_bias = numerical_grad(f, layer.bias.value)
        assert np.allclose(layer.scale.grad, num_scale, atol=1e-3)
        assert np.allclose(layer.bias.grad, num_bias, atol=1e-3)

    def test_adjacency_is_ternary(self, rng):
        layer = NeuroCLayer(10, 5, rng, quantizer=QUANTIZER)
        assert set(np.unique(layer.ternary_adjacency())) <= {-1, 0, 1}

    def test_fixed_adjacency_has_no_latent(self, rng):
        fixed = np.zeros((6, 4), dtype=np.int8)
        fixed[0, :] = 1
        layer = NeuroCLayer(6, 4, rng, fixed_adjacency=fixed)
        assert layer.latent is None
        assert np.array_equal(layer.ternary_adjacency(), fixed)

    def test_fixed_support_learns_signs_only(self, rng):
        support = rng.random((8, 4)) < 0.4
        layer = NeuroCLayer(8, 4, rng, fixed_support=support)
        adjacency = layer.ternary_adjacency()
        assert np.array_equal(adjacency != 0, support)
        # Push latent weights and confirm support never changes.
        layer.latent.value = -np.abs(layer.latent.value)
        adjacency2 = layer.ternary_adjacency()
        assert np.array_equal(adjacency2 != 0, support)
        assert (adjacency2[support] == -1).all()

    def test_learned_adjacency_needs_a_quantizer(self, rng):
        with pytest.raises(ConfigurationError, match="quantizer"):
            NeuroCLayer(4, 2, rng)

    def test_fixed_support_and_adjacency_exclusive(self, rng):
        with pytest.raises(ConfigurationError):
            NeuroCLayer(
                4, 2, rng,
                fixed_adjacency=np.zeros((4, 2), dtype=np.int8),
                fixed_support=np.ones((4, 2), dtype=bool),
            )

    def test_post_update_clips_latent(self, rng):
        layer = NeuroCLayer(6, 4, rng, quantizer=QUANTIZER)
        layer.latent.value += 100.0
        layer.post_update()
        assert float(layer.latent.value.max()) <= 1.0

    def test_parameter_count_uses_paper_definition(self, rng):
        layer = NeuroCLayer(10, 5, rng, quantizer=QUANTIZER)
        # neurons (scale + bias) + non-zero connections
        assert layer.parameter_count == 5 + 5 + layer.nnz

    def test_scale_gradient_flows_through_ste(self, rng):
        layer = NeuroCLayer(6, 4, rng, quantizer=QUANTIZER)
        x = rng.standard_normal((5, 6)).astype(np.float32)
        layer.forward(x, training=True)
        layer.backward(np.ones((5, 4), dtype=np.float32))
        assert np.abs(layer.latent.grad).sum() > 0


class TestTernaryLayer:
    """The §5.2 TNN layer: Neuro-C without its per-neuron scale."""

    def test_has_no_scale(self, rng):
        layer = NeuroCLayer(6, 4, rng, quantizer=QUANTIZER, use_scale=False)
        assert layer.scale is None
        assert not layer.use_scale

    def test_forward_is_sum_plus_bias(self, rng):
        layer = NeuroCLayer(6, 4, rng, quantizer=QUANTIZER, use_scale=False)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        out = layer.forward(x, training=False)
        expected = (
            x @ layer.ternary_adjacency().astype(np.float32)
            + layer.bias.value
        )
        assert np.allclose(out, expected, atol=1e-6)


class TestReLULayer:
    def test_gradient_matches_numeric(self, rng):
        layer = ReLULayer()
        x = rng.standard_normal((4, 5)).astype(np.float32) + 0.1
        target = rng.standard_normal((4, 5)).astype(np.float32)
        f, loss = loss_through(layer, x, target)
        f()
        grad_x = layer.backward(loss.backward())
        num_x = numerical_grad(f, x)
        assert np.allclose(grad_x, num_x, atol=1e-3)


class TestBatchNormLayer:
    def test_training_normalizes_batch(self, rng):
        layer = BatchNormLayer(4)
        x = rng.standard_normal((200, 4)).astype(np.float32) * 5 + 3
        out = layer.forward(x, training=True)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_inference_uses_running_stats(self, rng):
        layer = BatchNormLayer(4)
        x = rng.standard_normal((100, 4)).astype(np.float32) * 2 + 1
        for _ in range(50):
            layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        assert np.allclose(out.mean(axis=0), 0.0, atol=0.2)

    def test_gamma_beta_gradients(self, rng):
        layer = BatchNormLayer(3)
        x = rng.standard_normal((8, 3)).astype(np.float32)
        target = rng.standard_normal((8, 3)).astype(np.float32)
        f, loss = loss_through(layer, x, target)
        f()
        layer.gamma.zero_grad()
        layer.beta.zero_grad()
        layer.backward(loss.backward())
        assert np.allclose(
            layer.gamma.grad, numerical_grad(f, layer.gamma.value),
            atol=1e-3,
        )
        assert np.allclose(
            layer.beta.grad, numerical_grad(f, layer.beta.value), atol=1e-3
        )


class TestDropoutLayer:
    def test_identity_at_inference(self, rng):
        layer = DropoutLayer(0.5, rng)
        x = rng.standard_normal((10, 4)).astype(np.float32)
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_training_zeroes_and_rescales(self, rng):
        layer = DropoutLayer(0.5, rng)
        x = np.ones((2000, 10), dtype=np.float32)
        out = layer.forward(x, training=True)
        kept = out != 0.0
        assert 0.35 < kept.mean() < 0.65
        assert np.allclose(out[kept], 2.0)

    def test_invalid_rate(self, rng):
        with pytest.raises(ConfigurationError):
            DropoutLayer(1.0, rng)


#: Stacks of every layer kind, first layers included.
STACKS = {
    "dense": lambda rng: [
        DenseLayer(12, 8, rng), ReLULayer(),
        DenseLayer(8, 4, rng),
    ],
    "neuroc": lambda rng: [
        NeuroCLayer(12, 8, rng, quantizer=TernaryQuantizer(0.4)),
        ReLULayer(),
        NeuroCLayer(8, 4, rng, quantizer=TernaryQuantizer(0.6)),
    ],
    "tnn": lambda rng: [
        NeuroCLayer(12, 8, rng, quantizer=QUANTIZER, use_scale=False),
        ReLULayer(),
        NeuroCLayer(8, 4, rng, quantizer=QUANTIZER, use_scale=False),
    ],
    "fixed-support": lambda rng: [
        NeuroCLayer(12, 8, rng, fixed_support=rng.random((12, 8)) < 0.4),
        ReLULayer(),
        NeuroCLayer(8, 4, rng, fixed_support=rng.random((8, 4)) < 0.5),
    ],
    "batchnorm-dropout": lambda rng: [
        DenseLayer(12, 8, rng), BatchNormLayer(8), ReLULayer(),
        DropoutLayer(0.3, rng), DenseLayer(8, 4, rng),
    ],
    "dropout-first": lambda rng: [
        DropoutLayer(0.2, rng), DenseLayer(12, 8, rng),
        ReLULayer(), DenseLayer(8, 4, rng),
    ],
}


class TestModelBackward:
    """``Sequential.backward`` skips the first layer's input gradient;
    every parameter gradient stays the one a full backward gives."""

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_parameter_gradients_match_a_full_backward(self, stack):
        grads = []
        for full in (True, False):
            rng = np.random.default_rng(11)
            model = Sequential(STACKS[stack](rng))
            x = rng.standard_normal((9, 12)).astype(np.float32)
            grad = rng.standard_normal((9, 4)).astype(np.float32)
            model.forward(x, training=True)
            if full:
                for layer in reversed(model.layers):
                    grad = layer.backward(grad)
                assert grad.shape == x.shape
            else:
                assert model.backward(grad) is None
            grads.append([
                (p.grad.dtype, p.grad.tobytes()) for p in model.params()
            ])
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_every_layer_returns_its_input_gradient_on_request(self, stack):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 12)).astype(np.float32)
        for layer in STACKS[stack](rng):
            y = layer.forward(x, training=True)
            assert layer.backward(np.ones_like(y), input_grad=False) is None
            assert layer.backward(np.ones_like(y)).shape == x.shape
            x = y

"""Tests of the common neural layers."""

import numpy as np
import pytest

from repro.nn import Dropout, Embedding, GRUCell, Linear, MLP
from repro.tensor import Tensor, check_gradients


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer(Tensor(rng.standard_normal((7, 4)))).shape == (7, 3)

    def test_batched_leading_dims(self, rng):
        layer = Linear(4, 3, rng=rng)
        assert layer(Tensor(rng.standard_normal((2, 5, 4)))).shape == (2, 5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_matches_manual_affine(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_gradients_flow(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        check_gradients(lambda x: layer(x).tanh(), [x])
        layer(x).sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None


class TestEmbedding:
    def test_lookup(self, rng):
        table = Embedding(10, 4, rng=rng)
        out = table(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_gradient_scatter(self, rng):
        table = Embedding(5, 3, rng=rng)
        out = table(np.array([2, 2]))
        out.sum().backward()
        np.testing.assert_allclose(table.weight.grad[2], 2.0)
        np.testing.assert_allclose(table.weight.grad[0], 0.0)

    def test_all_returns_table(self, rng):
        table = Embedding(5, 3, rng=rng)
        assert table.all() is table.weight


class TestDropout:
    def test_eval_mode_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        assert layer(x) is x

    def test_train_mode_drops(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((100, 100))))
        assert (out.data == 0).any()

    def test_no_grad_is_inference_even_in_train_mode(self):
        from repro.tensor import no_grad

        rng = np.random.default_rng(0)
        layer = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((4, 4)))
        state = rng.bit_generator.state
        with no_grad():
            assert layer(x) is x
        assert layer.training and rng.bit_generator.state == state

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestMLP:
    def test_shapes_and_depth(self, rng):
        mlp = MLP([6, 8, 4, 2], rng=rng)
        assert len(mlp.layers) == 3
        assert mlp(Tensor(rng.standard_normal((3, 6)))).shape == (3, 2)

    def test_out_activation(self, rng):
        mlp = MLP([4, 3], out_activation="sigmoid", rng=rng)
        out = mlp(Tensor(rng.standard_normal((10, 4)))).data
        assert ((out > 0) & (out < 1)).all()

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP([4, 2], activation="bogus")

    def test_gradients_reach_all_layers(self, rng):
        mlp = MLP([4, 5, 2], rng=rng)
        mlp(Tensor(rng.standard_normal((3, 4)))).sum().backward()
        for p in mlp.parameters():
            assert p.grad is not None

    def test_dropout_only_training(self, rng):
        mlp = MLP([4, 8, 2], dropout=0.5, rng=rng)
        x = Tensor(np.ones((2, 4)))
        mlp.eval()
        a = mlp(x).data
        b = mlp(x).data
        np.testing.assert_allclose(a, b)


class TestGRUCell:
    def test_state_shape(self, rng):
        cell = GRUCell(4, 6, rng=rng)
        h = cell(Tensor(rng.standard_normal((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_initial_state_zero(self, rng):
        cell = GRUCell(4, 6, rng=rng)
        np.testing.assert_allclose(cell.initial_state(2).data, 0.0)

    def test_state_bounded(self, rng):
        cell = GRUCell(4, 6, rng=rng)
        h = cell.initial_state(3)
        for _ in range(20):
            h = cell(Tensor(rng.standard_normal((3, 4)) * 5), h)
        assert np.abs(h.data).max() <= 1.0 + 1e-9

    def test_bptt_gradients(self, rng):
        cell = GRUCell(3, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        h = cell.initial_state(2)
        for _ in range(3):
            h = cell(x, h)
        h.sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in cell.parameters())


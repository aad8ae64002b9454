"""Tests of the three GNMR building-block layers (η, ξ, ψ)."""

import numpy as np
import pytest

from repro.core import (
    BehaviorEmbeddingLayer,
    CrossBehaviorAttention,
    GatedMessageAggregation,
    GNMRPropagationLayer,
)
from repro.tensor import Tensor, check_gradients
from repro.tensor.sparse import SparseAdjacency
from repro.tensor.tensor import stack


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _message_stack(adjacencies, source):
    """The ``(N, K, d)`` per-behavior messages, one SpMM per adjacency."""
    return stack([adjacency.matmul(source) for adjacency in adjacencies], axis=1)


class TestBehaviorEmbedding:
    def test_shape_preserved(self, rng):
        layer = BehaviorEmbeddingLayer(dim=8, memory_dims=4, rng=rng)
        out = layer(Tensor(rng.standard_normal((10, 8))))
        assert out.shape == (10, 8)

    def test_gradients(self, rng):
        layer = BehaviorEmbeddingLayer(dim=4, memory_dims=3, rng=rng)
        x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        check_gradients(lambda x: layer(x), [x], atol=1e-4)
        layer(x).sum().backward()
        for p in layer.parameters():
            assert p.grad is not None

    def test_memory_gates_are_input_dependent(self, rng):
        """Different messages should produce different gate activations."""
        layer = BehaviorEmbeddingLayer(dim=6, memory_dims=4, rng=rng)
        a = rng.standard_normal((1, 6))
        gates_a = np.maximum(a @ layer.w1.data.T + layer.b1.data, 0.0)
        gates_b = np.maximum(-a @ layer.w1.data.T + layer.b1.data, 0.0)
        assert not np.allclose(gates_a, gates_b)

    def test_zero_message_gives_zero_output(self, rng):
        """With zero input, gates ReLU(b1)=b1⁺ multiply zero projections."""
        layer = BehaviorEmbeddingLayer(dim=6, memory_dims=4, rng=rng)
        out = layer(Tensor(np.zeros((3, 6))))
        np.testing.assert_allclose(out.data, 0.0)


class TestCrossBehaviorAttention:
    def test_shapes(self, rng):
        layer = CrossBehaviorAttention(dim=8, num_heads=2, rng=rng)
        out, weights = layer(Tensor(rng.standard_normal((5, 3, 8))))
        assert out.shape == (5, 3, 8)
        assert weights.shape == (5, 2, 3, 3)

    def test_attention_rows_normalized(self, rng):
        layer = CrossBehaviorAttention(dim=8, num_heads=2, rng=rng)
        _, weights = layer(Tensor(rng.standard_normal((4, 3, 8))))
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0)

    def test_residual_connection(self, rng):
        """Output = attention mix + input, so zero V weights ⇒ identity."""
        layer = CrossBehaviorAttention(dim=4, num_heads=1, rng=rng)
        layer.v.data = np.zeros_like(layer.v.data)
        x = Tensor(rng.standard_normal((3, 2, 4)))
        out, _ = layer(x)
        np.testing.assert_allclose(out.data, x.data)

    def test_heads_must_divide(self, rng):
        with pytest.raises(ValueError):
            CrossBehaviorAttention(dim=7, num_heads=2, rng=rng)

    def test_gradients(self, rng):
        layer = CrossBehaviorAttention(dim=4, num_heads=2, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_gradients(lambda x: layer(x)[0], [x], atol=1e-4)


class TestGatedAggregation:
    def test_fused_shape(self, rng):
        layer = GatedMessageAggregation(dim=8, hidden_dim=8, rng=rng)
        fused, weights = layer(Tensor(rng.standard_normal((6, 4, 8))))
        assert fused.shape == (6, 8)
        assert weights.shape == (6, 4)

    def test_weights_are_distribution(self, rng):
        layer = GatedMessageAggregation(dim=8, hidden_dim=8, rng=rng)
        _, weights = layer(Tensor(rng.standard_normal((6, 4, 8))))
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0)
        assert (weights.data >= 0).all()

    def test_fused_is_convex_combination(self, rng):
        """Fused output lies inside the per-type message span."""
        layer = GatedMessageAggregation(dim=4, hidden_dim=4, rng=rng)
        messages = rng.standard_normal((5, 3, 4))
        fused, weights = layer(Tensor(messages))
        manual = (messages * weights.data[:, :, None]).sum(axis=1)
        np.testing.assert_allclose(fused.data, manual)

    def test_gradients(self, rng):
        layer = GatedMessageAggregation(dim=4, hidden_dim=4, rng=rng)
        x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        check_gradients(lambda x: layer(x)[0], [x], atol=1e-4)


class TestPropagationLayer:
    @pytest.fixture
    def adjacencies(self, rng):
        import scipy.sparse as sp

        return [SparseAdjacency(sp.random(6, 9, density=0.4, random_state=s))
                for s in (1, 2)]

    def test_layer_output_shape(self, rng, adjacencies):
        layer = GNMRPropagationLayer(dim=8, memory_dims=4, num_heads=2, rng=rng)
        out = layer(_message_stack(adjacencies, Tensor(rng.standard_normal((9, 8)))))
        assert out.shape == (6, 8)

    def test_ablations_remove_submodules(self, rng):
        be = GNMRPropagationLayer(4, 2, 2, rng, use_behavior_embedding=False)
        assert be.behavior_embedding is None
        ma = GNMRPropagationLayer(4, 2, 2, rng, use_message_attention=False)
        assert ma.attention is None
        ga = GNMRPropagationLayer(4, 2, 2, rng, use_gated_aggregation=False)
        assert ga.aggregation is None

    def test_ablated_layer_still_runs(self, rng, adjacencies):
        layer = GNMRPropagationLayer(8, 4, 2, rng,
                                     use_behavior_embedding=False,
                                     use_message_attention=False,
                                     use_gated_aggregation=False)
        out = layer(_message_stack(adjacencies, Tensor(rng.standard_normal((9, 8)))))
        assert out.shape == (6, 8)

    def test_end_to_end_gradient(self, rng, adjacencies):
        layer = GNMRPropagationLayer(4, 2, 2, rng)
        source = Tensor(rng.standard_normal((9, 4)), requires_grad=True)
        check_gradients(lambda s: layer(_message_stack(adjacencies, s)),
                        [source], atol=1e-4)

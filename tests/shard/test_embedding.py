"""ShardedEmbedding: forward parity, sparse backward, module integration."""

import numpy as np
import pytest

from repro.nn import Adam, Embedding, Parameter
from repro.shard import (
    ShardSpec,
    ShardedEmbedding,
    table_array,
    table_parameters,
    table_rows,
    table_tensor,
)
from repro.tensor import RowSparseGrad


def _table(shape=(13, 4), seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.mark.parametrize("strategy", ["range", "hash"])
@pytest.mark.parametrize("num_shards", [1, 2, 5])
class TestForwardParity:
    def test_dense_table_bit_matches_source(self, strategy, num_shards):
        w = _table()
        emb = ShardedEmbedding(w, num_shards=num_shards, strategy=strategy)
        np.testing.assert_array_equal(emb.dense_table(), w)
        np.testing.assert_array_equal(emb.all().data, w)

    def test_rows_bit_matches_unsharded_gather(self, strategy, num_shards):
        w = _table()
        emb = ShardedEmbedding(w, num_shards=num_shards, strategy=strategy)
        idx = np.array([12, 0, 7, 7, 3, 0])
        np.testing.assert_array_equal(emb.rows(idx).data, w[idx])
        np.testing.assert_array_equal(emb.embedding_rows(idx).data, w[idx])

    def test_forward_any_index_shape(self, strategy, num_shards):
        w = _table()
        emb = ShardedEmbedding(w, num_shards=num_shards, strategy=strategy)
        idx = np.array([[0, 5], [11, 5]])
        np.testing.assert_array_equal(emb(idx).data, w[idx])

    def test_one_dim_bias_table(self, strategy, num_shards):
        b = _table(shape=(9,), seed=1)
        emb = ShardedEmbedding(b, num_shards=num_shards, strategy=strategy)
        assert emb.row_shape == ()
        assert emb.embedding_dim is None
        idx = np.array([8, 0, 4, 4])
        np.testing.assert_array_equal(emb.rows(idx).data, b[idx])
        np.testing.assert_array_equal(emb.dense_table(), b)

    def test_empty_batch(self, strategy, num_shards):
        emb = ShardedEmbedding(_table(), num_shards=num_shards,
                               strategy=strategy)
        out = emb.rows(np.empty(0, dtype=np.int64))
        assert out.data.shape == (0, 4)


class TestBackward:
    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_rows_backward_is_per_shard_rowsparse(self, strategy):
        w = _table()
        emb = ShardedEmbedding(w, num_shards=3, strategy=strategy)
        idx = np.array([0, 7, 3, 7, 12, 1])
        emb.rows(idx).sum().backward()
        seen_rows = 0
        for k, p in enumerate(emb.shards):
            if p.grad is None:
                continue
            assert isinstance(p.grad, RowSparseGrad)
            seen_rows += p.grad.nnz_rows
        assert seen_rows == np.unique(idx).size

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_rows_backward_matches_unsharded(self, strategy):
        w = _table()
        plain = Parameter(w.copy(), name="ref")
        emb = ShardedEmbedding(w, num_shards=4, strategy=strategy)
        idx = np.array([0, 7, 3, 7, 12, 1, 1])
        (plain.embedding_rows(idx) * 2.0).sum().backward()
        (emb.rows(idx) * 2.0).sum().backward()
        merged = np.zeros_like(w)
        for k, p in enumerate(emb.shards):
            if p.grad is not None:
                merged[emb.spec.shard_rows(k)] += p.grad.to_dense()
        np.testing.assert_array_equal(merged, plain.grad.to_dense())

    def test_all_backward_splits_dense_grads(self):
        w = _table()
        emb = ShardedEmbedding(w, num_shards=2, strategy="hash")
        (emb.all() * 3.0).sum().backward()
        for k, p in enumerate(emb.shards):
            np.testing.assert_array_equal(
                p.grad, np.full(p.data.shape, 3.0))


class TestModuleIntegration:
    def test_parameters_are_the_shards(self):
        emb = ShardedEmbedding(_table(), num_shards=3, name="table")
        params = emb.parameters()
        assert len(params) == 3
        names = [name for name, _ in emb.named_parameters()]
        assert names == ["shards.0", "shards.1", "shards.2"]

    def test_state_dict_roundtrip(self):
        emb = ShardedEmbedding(_table(), num_shards=3, strategy="hash")
        state = emb.state_dict()
        other = ShardedEmbedding(np.zeros((13, 4)), num_shards=3,
                                 strategy="hash")
        other.load_state_dict(state)
        np.testing.assert_array_equal(other.dense_table(), emb.dense_table())

    def test_init_matches_nn_embedding_stream(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        layer = Embedding(11, 6, rng=rng_a)
        sharded = ShardedEmbedding.init(11, 6, rng_b, num_shards=3)
        np.testing.assert_array_equal(sharded.dense_table(),
                                      layer.weight.data)
        # identical post-init stream: sharding drew exactly the same numbers
        assert rng_a.random() == rng_b.random()

    def test_adam_row_counters_stay_shard_local(self):
        emb = ShardedEmbedding(_table(), num_shards=2)
        opt = Adam(emb.parameters(), lr=0.1)
        rows = np.array([0, 12])  # one row per shard under range split
        emb.rows(rows).sum().backward()
        opt.step()
        for i, p in enumerate(opt.parameters):
            counts = opt._row_steps[i]
            assert counts is not None
            assert counts.size == p.data.shape[0]  # shard-sized, not table

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedEmbedding(np.zeros(()))  # 0-d weight
        with pytest.raises(ValueError):
            ShardedEmbedding(np.zeros((4, 2)), spec=ShardSpec(5, 1))
        with pytest.raises(ValueError):
            ShardedEmbedding(np.zeros((4, 2)), num_shards=2).rows(
                np.zeros((2, 2), dtype=np.int64))


class TestTableAdapters:
    def test_adapters_cover_all_table_kinds(self):
        w = _table()
        param = Parameter(w.copy(), name="p")
        layer = Embedding(13, 4)
        layer.weight.data = w.copy()
        sharded = ShardedEmbedding(w, num_shards=3)
        idx = np.array([1, 5, 5, 12])
        for table in (param, layer, sharded):
            np.testing.assert_array_equal(table_rows(table, idx).data, w[idx])
            np.testing.assert_array_equal(table_array(table), w)
        np.testing.assert_array_equal(table_tensor(param).data, w)
        np.testing.assert_array_equal(table_tensor(layer.weight).data, w)
        np.testing.assert_array_equal(table_tensor(sharded).data, w)
        assert table_parameters(param) == [param]
        assert table_parameters(layer) == [layer.weight]
        assert table_parameters(sharded) == sharded.shards

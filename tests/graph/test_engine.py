"""Tests of the shared :class:`~repro.graph.engine.PropagationEngine`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import taobao_like
from repro.graph import PropagationEngine, bipartite_laplacian
from repro.tensor import SparseAdjacency, Tensor, check_gradients


@pytest.fixture(scope="module")
def dataset():
    return taobao_like(num_users=30, num_items=50, seed=1)


@pytest.fixture(scope="module")
def engine(dataset):
    return PropagationEngine(dataset.graph(), normalization="row")


class TestFusedPropagation:
    def test_stack_matches_per_behavior_loop(self, dataset, engine):
        """One stacked SpMM must equal K separate products exactly."""
        rng = np.random.default_rng(0)
        h_item = Tensor(rng.standard_normal((dataset.num_items, 8)))
        fused = engine.propagate_user(h_item)
        assert fused.shape == (dataset.num_users, engine.num_behaviors, 8)
        for k, adjacency in enumerate(engine.user_adjacencies):
            expected = adjacency.matmul(h_item).data
            assert (fused.data[:, k, :] == expected).all()

    def test_item_side_shape_and_values(self, dataset, engine):
        rng = np.random.default_rng(1)
        h_user = Tensor(rng.standard_normal((dataset.num_users, 8)))
        fused = engine.propagate_item(h_user)
        assert fused.shape == (dataset.num_items, engine.num_behaviors, 8)
        for k, adjacency in enumerate(engine.item_adjacencies):
            assert (fused.data[:, k, :] == adjacency.matmul(h_user).data).all()

    def test_gradients_flow_through_fused_spmm(self, dataset, engine):
        rng = np.random.default_rng(2)
        h = Tensor(rng.standard_normal((dataset.num_items, 4)), requires_grad=True)
        check_gradients(lambda h: engine.propagate_user(h), [h], atol=1e-4)

    def test_behavior_subset(self, dataset):
        names = dataset.behavior_names[:2]
        engine = PropagationEngine(dataset.graph(), behaviors=names)
        assert engine.behaviors == tuple(names)
        assert engine.num_behaviors == 2
        assert len(engine.user_adjacencies) == 2

    def test_unknown_behavior_rejected(self, dataset):
        with pytest.raises(ValueError, match="not in graph"):
            PropagationEngine(dataset.graph(), behaviors=("nope",))

    def test_dtype_override(self, dataset):
        engine = PropagationEngine(dataset.graph(), dtype="float32")
        assert engine.dtype == np.float32
        assert all(a.dtype == np.float32 for a in engine.user_adjacencies)
        h = Tensor(np.ones((dataset.num_items, 4), dtype=np.float32))
        assert engine.propagate_user(h).dtype == np.float32

    def test_stacks_precompute_backward_transpose(self, engine):
        assert engine._user_stack._transpose_cache is not None
        assert engine._item_stack._transpose_cache is not None

    def test_block_extraction_keeps_one_copy_of_the_adjacency(self, dataset):
        # blocks are gathered from the stacks; the per-behavior row slices
        # (a second copy of every value) are for introspection only
        from repro.core import GNMR, GNMRConfig

        model = GNMR(dataset, GNMRConfig(pretrain=False, seed=0))
        model.extract_block(np.arange(4), np.arange(4), np.arange(4, 8),
                            fanout=(3, 2), rng=np.random.default_rng(0))
        model.cold_user_embeddings(np.array([1]))
        assert model.engine._user_slices is None
        assert model.engine._item_slices is None
        assert len(model.engine.user_adjacencies) == model.engine.num_behaviors
        assert model.engine._user_slices is not None


class TestVersionedCache:
    def test_cached_reuses_until_invalidated(self, dataset):
        engine = PropagationEngine(dataset.graph())
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        assert engine.cached("x", compute) == 1
        assert engine.cached("x", compute) == 1
        engine.invalidate()
        assert engine.cached("x", compute) == 2
        assert len(calls) == 2

    def test_version_counter_monotonic(self, dataset):
        engine = PropagationEngine(dataset.graph())
        v0 = engine.version
        engine.invalidate()
        assert engine.version == v0 + 1

    def test_keys_are_independent(self, dataset):
        engine = PropagationEngine(dataset.graph())
        assert engine.cached("a", lambda: "A") == "A"
        assert engine.cached("b", lambda: "B") == "B"
        assert engine.cached("a", lambda: "never") == "A"


class TestSingleGraphMode:
    def test_bipartite_laplacian_shape_and_norm(self, dataset):
        graph = dataset.graph()
        lap = bipartite_laplacian(graph.merged_adjacency().matrix)
        n = dataset.num_users + dataset.num_items
        assert lap.shape == (n, n)
        # sym-normalized with self loops: spectral radius ≤ 1
        dense = lap.to_dense()
        assert np.abs(np.linalg.eigvalsh(dense)).max() <= 1.0 + 1e-8

    def test_propagate_single(self, dataset):
        engine = PropagationEngine.bipartite(dataset.graph())
        n = dataset.num_users + dataset.num_items
        h = Tensor(np.random.default_rng(0).standard_normal((n, 4)))
        out = engine.propagate(h)
        assert out.shape == (n, 4)
        assert (out.data == engine.adjacency.matmul(h).data).all()

    def test_mode_mismatch_raises(self, dataset):
        multi = PropagationEngine(dataset.graph())
        with pytest.raises(RuntimeError):
            multi.propagate(Tensor(np.ones((3, 2))))
        single = PropagationEngine.from_adjacency(
            SparseAdjacency(sp.eye(4, format="csr")))
        with pytest.raises(RuntimeError):
            single.propagate_user(Tensor(np.ones((4, 2))))


class TestModelsShareEngine:
    def test_gnmr_uses_engine(self, dataset):
        from repro.core import GNMR, GNMRConfig

        model = GNMR(dataset, GNMRConfig(pretrain=False, num_layers=1))
        assert isinstance(model.engine, PropagationEngine)
        assert model.engine.num_behaviors == len(dataset.behavior_names)
        # score() populates the engine cache; on_step_end drops it
        model.score(np.arange(4), np.arange(4))
        assert model.engine._cache
        version = model.engine.version
        model.on_step_end()
        assert model.engine.version == version + 1
        assert not model.engine._cache

    def test_ngcf_uses_engine(self, dataset):
        from repro.models.ngcf import NGCF

        model = NGCF(dataset, embedding_dim=8, num_layers=1)
        assert isinstance(model.engine, PropagationEngine)
        n = dataset.num_users + dataset.num_items
        assert model._laplacian.shape == (n, n)
        model.score(np.arange(4), np.arange(4))
        assert model.engine._cache
        model.on_step_end()
        assert not model.engine._cache

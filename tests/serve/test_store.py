"""Tests of the versioned embedding snapshot store."""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.models import BiasMF, NGCF
from repro.serve import EmbeddingStore, RecommendationService, model_version


@pytest.fixture(scope="module")
def gnmr(small_taobao):
    return GNMR(small_taobao, GNMRConfig(pretrain=False, seed=0))


class TestSnapshot:
    def test_gnmr_snapshot_reproduces_score(self, gnmr):
        store = EmbeddingStore.snapshot(gnmr, dtype=None)
        users = np.array([0, 3, 9])
        items = np.array([5, 2, 7])
        np.testing.assert_allclose(store.score(users, items),
                                   gnmr.score(users, items))

    def test_ngcf_snapshot_reproduces_score(self, small_taobao):
        model = NGCF(small_taobao, seed=0)
        store = EmbeddingStore.snapshot(model, dtype=None)
        users = np.array([1, 2])
        items = np.array([3, 4])
        np.testing.assert_allclose(store.score(users, items),
                                   model.score(users, items))

    def test_default_dtype_is_float32(self, gnmr):
        store = EmbeddingStore.snapshot(gnmr)
        assert store.user_matrix.dtype == np.float32
        assert store.item_matrix.dtype == np.float32
        assert store.num_users == gnmr.num_users
        assert store.num_items == gnmr.num_items

    def test_unfactored_model_yields_none(self, small_taobao):
        model = BiasMF(small_taobao.num_users, small_taobao.num_items, seed=0)
        assert model.serving_embeddings() is None
        assert EmbeddingStore.snapshot(model) is None
        assert model_version(model) is None


class TestInvalidation:
    """Staleness is the service's question: a store is a value and never
    catches up — a fresher one replaces it."""

    def test_fresh_snapshot_not_stale(self, gnmr):
        service = RecommendationService(gnmr)
        assert service.store.version == gnmr.engine.version
        assert service.refresh() is False

    def test_engine_bump_marks_stale(self, small_taobao):
        model = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=1))
        service = RecommendationService(model)
        model.on_step_end()  # what the trainer calls after each step
        assert service.snapshot_version != model.engine.version
        assert service.refresh() is True

    def test_refresh_catches_up(self, small_taobao):
        model = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=2))
        service = RecommendationService(model)
        before = service.store.user_matrix.copy()
        model.user_embeddings.data += 0.5  # "training step"
        model.on_step_end()
        assert service.refresh() is True
        assert service.store.version == model.engine.version
        assert service.refresh() is False
        assert not np.allclose(service.store.user_matrix, before)

    def test_refresh_noop_when_fresh(self, small_taobao):
        model = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=3))
        service = RecommendationService(model)
        installed = service.store, service.retriever
        assert service.refresh() is False
        assert (service.store, service.retriever) == installed
        assert service.archived_versions() == []
        service.reload()  # unconditional
        assert service.store is not installed[0]

    def test_swap_leaves_the_outgoing_store_untouched(self, small_taobao):
        model = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=5))
        service = RecommendationService(model, retriever="ivf")
        captured = service.store
        version, content_hash = captured.version, captured.content_hash
        users, items = captured.user_matrix.copy(), captured.item_matrix.copy()
        model.user_embeddings.data += 0.5
        model.on_step_end()
        service.reload()
        assert service.store is not captured
        assert service.store.version != version
        assert (captured.version, captured.content_hash) == (version,
                                                             content_hash)
        np.testing.assert_array_equal(captured.user_matrix, users)
        np.testing.assert_array_equal(captured.item_matrix, items)
        assert captured.verify() == content_hash


class TestAnnIndexLifecycle:
    def test_same_config_reuses_index(self, gnmr):
        store = EmbeddingStore.snapshot(gnmr)
        assert store.ann_index(quant="int8") is store.ann_index(quant="int8")

    def test_distinct_configs_get_distinct_indexes(self, gnmr):
        store = EmbeddingStore.snapshot(gnmr)
        assert store.ann_index(quant="int8") is not store.ann_index()
        assert store.ann_index(seed=1) is not store.ann_index(seed=0)

    def test_refresh_invalidates_indexes(self, small_taobao):
        """The store a swap installs has an index of its own; the old
        store's cached one is untouched."""
        model = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=8))
        service = RecommendationService(model, retriever="ivf")
        old_store = service.store
        stale_index = old_store.ann_index()
        assert service.retriever.index is stale_index
        model.item_embeddings.data += 0.5
        model.on_step_end()
        assert service.refresh()
        fresh_index = service.store.ann_index()
        assert service.retriever.index is fresh_index is not stale_index
        np.testing.assert_array_equal(fresh_index.item_matrix,
                                      service.store.item_matrix)
        assert old_store.ann_index() is stale_index
        np.testing.assert_array_equal(stale_index.item_matrix,
                                      old_store.item_matrix)

    def test_index_covers_snapshot_catalog(self, gnmr):
        store = EmbeddingStore.snapshot(gnmr)
        index = store.ann_index(num_lists=4)
        assert index.num_items == store.num_items
        assert index.num_lists == 4


class TestSnapshotIntegrity:
    def test_content_hash_recorded_and_stable(self, gnmr):
        from repro.serve import SnapshotIntegrityError

        store = EmbeddingStore.snapshot(gnmr)
        assert store.verify() == store.content_hash
        again = EmbeddingStore.snapshot(gnmr)
        assert again.content_hash == store.content_hash
        store.user_matrix[0, 0] += 1.0  # in-place mutation is detected
        with pytest.raises(SnapshotIntegrityError):
            store.verify()

    def test_refresh_rebuilds_hash(self, small_taobao):
        model = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=4))
        service = RecommendationService(model)
        first = service.store.content_hash
        model.user_embeddings.data += 0.01
        model.on_step_end()
        assert service.refresh()
        assert service.store.content_hash != first
        service.store.verify()

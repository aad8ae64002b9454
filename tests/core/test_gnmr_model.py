"""Tests of the assembled GNMR model."""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig


@pytest.fixture(scope="module")
def dataset():
    from repro.data import taobao_like

    return taobao_like(num_users=30, num_items=45, seed=17)


@pytest.fixture(scope="module")
def model(dataset):
    return GNMR(dataset, GNMRConfig(embedding_dim=8, memory_dims=4,
                                    num_heads=2, num_layers=2,
                                    pretrain=False, seed=0))


class TestConstruction:
    def test_layer_count(self, model):
        assert len(model.layers) == 2

    def test_zero_layer_model(self, dataset):
        shallow = GNMR(dataset, GNMRConfig(num_layers=0, pretrain=False))
        assert len(shallow.layers) == 0
        scores = shallow.score(np.array([0, 1]), np.array([2, 3]))
        assert scores.shape == (2,)

    def test_graph_behaviors_subset(self, dataset):
        sub = GNMR(dataset, GNMRConfig(pretrain=False,
                                       graph_behaviors=("cart", "purchase")))
        assert sub.behavior_names == ("cart", "purchase")
        assert len(sub.engine.user_adjacencies) == 2

    def test_unknown_graph_behavior_rejected(self, dataset):
        with pytest.raises(ValueError):
            GNMR(dataset, GNMRConfig(pretrain=False, graph_behaviors=("bogus",)))

    def test_pretrained_init_differs_from_random(self, dataset):
        pre = GNMR(dataset, GNMRConfig(embedding_dim=8, pretrain=True,
                                       pretrain_epochs=2, seed=0))
        rand = GNMR(dataset, GNMRConfig(embedding_dim=8, pretrain=False, seed=0))
        assert not np.allclose(pre.user_embeddings.data, rand.user_embeddings.data)


class TestPropagation:
    def test_multi_order_shapes(self, model, dataset):
        user_layers, item_layers = model.propagate()
        assert len(user_layers) == 3  # orders 0..2
        for h in user_layers:
            assert h.shape == (dataset.num_users, 8)
        for h in item_layers:
            assert h.shape == (dataset.num_items, 8)

    def test_score_tensor_matches_score(self, model):
        model.eval()  # dropout must be off for the paths to agree
        users = np.array([0, 1, 2])
        items = np.array([3, 4, 5])
        a = model.score(users, items)
        b = model.score_tensor(users, items).data
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_batch_scores_consistent(self, model):
        model.eval()
        users = np.array([0, 1])
        pos = np.array([2, 3])
        neg = np.array([4, 5])
        p, n = model.batch_scores(users, pos, neg)
        np.testing.assert_allclose(p.data, model.score(users, pos), rtol=1e-10)
        np.testing.assert_allclose(n.data, model.score(users, neg), rtol=1e-10)

    def test_training_mode_dropout_is_stochastic(self, dataset):
        """With dropout on and training mode, propagation is stochastic —
        but score() must stay deterministic (it forces eval mode)."""
        stochastic = GNMR(dataset, GNMRConfig(embedding_dim=8, pretrain=False,
                                              dropout=0.5, seed=3))
        stochastic.train()
        users, items = np.array([0, 1]), np.array([2, 3])
        a = stochastic.score_tensor(users, items).data
        b = stochastic.score_tensor(users, items).data
        assert not np.allclose(a, b)
        np.testing.assert_allclose(stochastic.score(users, items),
                                   stochastic.score(users, items))

    def test_cache_invalidation(self, model):
        users, items = np.array([0]), np.array([1])
        before = model.score(users, items)
        model.user_embeddings.data = model.user_embeddings.data + 0.5
        stale = model.score(users, items)  # cache still warm
        np.testing.assert_allclose(stale, before)
        model.on_step_end()
        fresh = model.score(users, items)
        assert not np.allclose(fresh, before)
        model.user_embeddings.data = model.user_embeddings.data - 0.5
        model.on_step_end()

    def test_gradients_reach_all_parameters(self, model):
        users = np.array([0, 1, 2, 3])
        pos = np.array([1, 2, 3, 4])
        neg = np.array([5, 6, 7, 8])
        model.zero_grad()
        p, n = model.batch_scores(users, pos, neg)
        from repro.nn import pairwise_hinge_loss

        pairwise_hinge_loss(p, n).backward()
        missing = [name for name, p_ in model.named_parameters() if p_.grad is None]
        assert not missing, f"no gradient for {missing}"


class TestAblations:
    def test_gnmr_be_has_fewer_params(self, dataset):
        full = GNMR(dataset, GNMRConfig(pretrain=False))
        be = GNMR(dataset, GNMRConfig(pretrain=False, use_behavior_embedding=False))
        assert be.num_parameters() < full.num_parameters()

    def test_gnmr_ma_has_fewer_params(self, dataset):
        full = GNMR(dataset, GNMRConfig(pretrain=False))
        ma = GNMR(dataset, GNMRConfig(pretrain=False, use_message_attention=False))
        assert ma.num_parameters() < full.num_parameters()

    def test_depth_zero_scores_are_dot_products(self, dataset):
        shallow = GNMR(dataset, GNMRConfig(num_layers=0, pretrain=False, seed=1))
        users, items = np.array([0, 1]), np.array([1, 2])
        expected = np.sum(shallow.user_embeddings.data[users]
                          * shallow.item_embeddings.data[items], axis=1)
        np.testing.assert_allclose(shallow.score(users, items), expected)

    def test_mean_layer_combination(self, dataset):
        summed = GNMR(dataset, GNMRConfig(pretrain=False, seed=2))
        averaged = GNMR(dataset, GNMRConfig(pretrain=False, seed=2,
                                            layer_combination="mean"))
        users, items = np.array([0]), np.array([1])
        ratio = summed.score(users, items) / averaged.score(users, items)
        np.testing.assert_allclose(ratio, 3.0, rtol=1e-8)


class TestIntrospection:
    def test_behavior_attention_matrix(self, model, dataset):
        attn = model.behavior_attention()
        k = dataset.num_behaviors
        assert attn.shape == (k, k)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, rtol=1e-8)

    def test_behavior_importance(self, model, dataset):
        weights = model.behavior_importance()
        assert weights.shape == (dataset.num_behaviors,)
        assert weights.sum() == pytest.approx(1.0)

    def test_attention_unavailable_on_ablated(self, dataset):
        ma = GNMR(dataset, GNMRConfig(pretrain=False, use_message_attention=False))
        with pytest.raises(RuntimeError):
            ma.behavior_attention()

    def test_recommend_excludes_items(self, model):
        recs = model.recommend(0, top_n=5, exclude_items={0, 1, 2})
        items = [i for i, _ in recs]
        assert len(recs) == 5
        assert not ({0, 1, 2} & set(items))
        scores = [s for _, s in recs]
        assert scores == sorted(scores, reverse=True)

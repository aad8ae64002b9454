"""Tests of the attribute-feature extension (paper future work)."""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import synthesize_attributes, taobao_like


@pytest.fixture(scope="module")
def featured():
    data = taobao_like(num_users=30, num_items=45, seed=31)
    return synthesize_attributes(data, num_features=6, seed=1)


class TestSynthesizeAttributes:
    def test_shapes(self, featured):
        assert featured.user_features.shape == (30, 6)
        assert featured.item_features.shape == (45, 6)

    def test_interactions_preserved(self, featured):
        plain = taobao_like(num_users=30, num_items=45, seed=31)
        assert featured.interaction_count() == plain.interaction_count()
        assert featured.behavior_names == plain.behavior_names

    def test_features_correlate_with_interactions(self):
        """Low-noise attributes should carry interaction structure."""
        data = taobao_like(num_users=40, num_items=60, seed=32)
        featured = synthesize_attributes(data, num_features=8, noise=0.1, seed=2)
        merged = data.graph().merged_adjacency().to_dense()
        # users with similar interaction rows → similar feature rows
        reconstructed = featured.user_features @ featured.item_features.T
        corr = np.corrcoef(reconstructed.ravel(), merged.ravel())[0, 1]
        assert corr > 0.5

    def test_padding_with_more_features_than_rank(self):
        data = taobao_like(num_users=20, num_items=30, seed=33)
        featured = synthesize_attributes(data, num_features=25, seed=3)
        assert featured.user_features.shape[1] == 25

    def test_invalid_feature_count(self, featured):
        with pytest.raises(ValueError):
            synthesize_attributes(featured, num_features=0)

    def test_feature_shape_validation(self):
        from repro.data import InteractionDataset

        with pytest.raises(ValueError):
            InteractionDataset(
                "x", 3, 3, ("a",), "a",
                {"a": {"users": np.array([0]), "items": np.array([0])}},
                user_features=np.zeros((5, 2)),
            )

    def test_features_survive_derived_datasets(self, featured):
        only = featured.only_target()
        assert only.user_features is not None
        reduced = featured.remove_target_rows(np.array([0]))
        assert reduced.item_features is not None


class TestGNMRWithFeatures:
    def test_requires_features(self):
        plain = taobao_like(num_users=20, num_items=30, seed=34)
        with pytest.raises(ValueError):
            GNMR(plain, GNMRConfig(pretrain=False, use_side_features=True))

    def test_forward_works(self, featured):
        model = GNMR(featured, GNMRConfig(pretrain=False, use_side_features=True,
                                          seed=0))
        scores = model.score(np.array([0, 1]), np.array([2, 3]))
        assert np.isfinite(scores).all()

    def test_feature_projection_receives_gradient(self, featured):
        from repro.nn import pairwise_hinge_loss

        model = GNMR(featured, GNMRConfig(pretrain=False, use_side_features=True,
                                          seed=0))
        pos, neg = model.batch_scores(np.array([0, 1]), np.array([1, 2]),
                                      np.array([3, 4]))
        pairwise_hinge_loss(pos, neg).backward()
        assert model.user_feature_proj.weight.grad is not None
        assert model.item_feature_proj.weight.grad is not None

    def test_features_change_scores(self, featured):
        with_f = GNMR(featured, GNMRConfig(pretrain=False, use_side_features=True,
                                           seed=0))
        without = GNMR(featured, GNMRConfig(pretrain=False, seed=0))
        users, items = np.array([0, 1]), np.array([2, 3])
        assert not np.allclose(with_f.score(users, items),
                               without.score(users, items))

    def test_trains_end_to_end(self, featured):
        from repro.train import TrainConfig

        model = GNMR(featured, GNMRConfig(pretrain=False, use_side_features=True,
                                          seed=0))
        history = model.fit(featured, TrainConfig(epochs=2, steps_per_epoch=3,
                                                  batch_users=8, per_user=2, seed=0))
        assert len(history) == 2

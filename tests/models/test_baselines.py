"""Uniform contract tests across every baseline recommender."""

import numpy as np
import pytest

from repro.data import leave_one_out_split, taobao_like
from repro.models import (
    AutoRec,
    BiasMF,
    CDAE,
    CFUIcA,
    DIPN,
    DMF,
    NADE,
    NCFGMF,
    NCFMLP,
    NGCF,
    NMTR,
    NeuMF,
)
from repro.models.nade import autoregressive_hidden
from repro.train import TrainConfig

FAST = TrainConfig(epochs=3, steps_per_epoch=4, batch_users=8, per_user=2,
                   lr=5e-3, seed=0)


def build_all(train):
    u, i = train.num_users, train.num_items
    return [
        BiasMF(u, i, seed=0),
        DMF(train, seed=0),
        NCFGMF(u, i, seed=0),
        NCFMLP(u, i, seed=0),
        NeuMF(u, i, seed=0),
        AutoRec(train, seed=0),
        CDAE(train, seed=0),
        NADE(train, seed=0),
        CFUIcA(train, seed=0),
        NGCF(train, seed=0),
        NMTR(train, seed=0),
        DIPN(train, seed=0),
    ]


@pytest.fixture(scope="module")
def split(small_taobao):
    return leave_one_out_split(small_taobao)


@pytest.fixture(scope="module")
def trained_models(split):
    models = build_all(split.train)
    for model in models:
        model.fit(split.train, FAST)
    return models


class TestContract:
    def test_all_models_have_unique_names(self, split):
        names = [m.name for m in build_all(split.train)]
        assert len(names) == len(set(names))

    def test_score_shape_and_finiteness(self, trained_models):
        users = np.array([0, 1, 2, 3])
        items = np.array([4, 5, 6, 7])
        for model in trained_models:
            scores = model.score(users, items)
            assert scores.shape == (4,), model.name
            assert np.isfinite(scores).all(), model.name

    def test_score_deterministic_in_eval(self, trained_models):
        users = np.array([0, 1])
        items = np.array([2, 3])
        for model in trained_models:
            model.eval()
            a = model.score(users, items)
            b = model.score(users, items)
            np.testing.assert_allclose(a, b, err_msg=model.name)

    def test_score_tensor_matches_score(self, trained_models):
        users = np.array([1, 2])
        items = np.array([3, 4])
        for model in trained_models:
            model.eval()
            np.testing.assert_allclose(
                model.score(users, items),
                model.score_tensor(users, items).data,
                rtol=1e-8, err_msg=model.name)

    def test_training_produces_gradients(self, split):
        for model in build_all(split.train):
            history = model.fit(split.train, FAST)
            assert len(history) == FAST.epochs, model.name
            assert np.isfinite(history.last()["loss"]), model.name

    def test_recommend_api(self, trained_models):
        for model in trained_models:
            recs = model.recommend(0, top_n=3)
            assert len(recs) == 3, model.name
            scores = [s for _, s in recs]
            assert scores == sorted(scores, reverse=True), model.name

    def test_parameters_nonempty(self, split):
        for model in build_all(split.train):
            assert model.num_parameters() > 0, model.name


class TestModelSpecifics:
    def test_biasmf_bias_contributes(self, split):
        model = BiasMF(split.train.num_users, split.train.num_items, seed=0)
        model.item_bias.data[3] = 100.0
        scores = model.score(np.array([0, 0]), np.array([3, 4]))
        assert scores[0] > scores[1]

    def test_dmf_scores_are_cosines(self, split):
        model = DMF(split.train, seed=0)
        scores = model.score(np.arange(5), np.arange(5))
        assert (np.abs(scores) <= 1.0 + 1e-9).all()

    def test_autorec_score_uses_reconstruction(self, split):
        model = AutoRec(split.train, seed=0)
        users = np.array([0, 1])
        items = np.array([2, 3])
        recon = model._reconstruction()
        np.testing.assert_allclose(model.score(users, items),
                                   recon[users, items])

    @pytest.mark.parametrize("model_cls", [AutoRec, CDAE])
    def test_autoencoders_train_on_the_fit_dataset(self, model_cls):
        """``fit(b)`` trains on ``b``'s profile rows: a model built on
        ``a`` and fit on ``b`` ends on the parameters of one built and fit
        on ``b`` (same shape, same seed), not on those of ``fit(a)``."""
        a, b = (taobao_like(num_users=30, num_items=50, seed=seed)
                for seed in (1, 2))
        config = TrainConfig(epochs=2, batch_users=8, seed=0)

        def trained(built_on, fit_on):
            model = model_cls(built_on, seed=0)
            model.fit(fit_on, config)
            return [p.data.copy() for p in model.parameters()]

        across, native, own = trained(a, b), trained(b, b), trained(a, a)
        assert all((x == y).all() for x, y in zip(across, native))
        assert not all((x == y).all() for x, y in zip(across, own))
        model = model_cls(a, seed=0)
        assert model.batch_source(a, config)._profiles is model._profiles
        smaller = taobao_like(num_users=20, num_items=50, seed=2)
        with pytest.raises(ValueError, match="20 x 50"):
            model_cls(a, seed=0).fit(smaller, config)

    @pytest.mark.parametrize("model_cls", [AutoRec, CDAE])
    @pytest.mark.parametrize("override", [{"loss": "bpr"}, {"margin": 0.5}])
    def test_autoencoders_refuse_a_pairwise_loss(self, model_cls, override,
                                                 split):
        """Their source reconstructs profile rows: a loss or margin it
        would not read is refused, naming the model."""
        model = model_cls(split.train, seed=0)
        config = TrainConfig(epochs=1, batch_users=8, seed=0, **override)
        with pytest.raises(ValueError, match=f"^{model.name} .*hinge"):
            model.fit(split.train, config)

    @pytest.mark.parametrize("model_cls", [AutoRec, CDAE])
    def test_autoencoders_do_not_read_steps_or_per_user(self, model_cls,
                                                        split):
        """Every experiment scale sets ``steps_per_epoch`` and ``per_user``
        for all models, so the profile models take them and train the
        same parameters whatever they are."""
        states = []
        for steps, per_user in ((1, 1), (5, 4)):
            model = model_cls(split.train, seed=0)
            model.fit(split.train, TrainConfig(
                epochs=1, steps_per_epoch=steps, batch_users=8,
                per_user=per_user, seed=0))
            states.append(model.state_dict())
        assert states[0].keys() == states[1].keys()
        for name in states[0]:
            np.testing.assert_array_equal(states[0][name], states[1][name])

    def test_cdae_corruption_validated(self, split):
        with pytest.raises(ValueError):
            CDAE(split.train, corruption=1.0)

    def test_nade_excludes_scored_item_from_history(self, split):
        """Autoregressive conditioning must not leak the predicted item."""
        model = NADE(split.train, seed=0)
        user = int(split.train.arrays("purchase")[0][0])
        history = model._histories[user]
        assert history.size > 0
        held = history[0]
        def hidden(exclude):
            return autoregressive_hidden(model.w_in, model.c, model._histories,
                                         np.array([user]), np.array([exclude]))

        hidden_with_exclusion = hidden(held)
        hidden_without = hidden(split.train.num_items - 1)
        assert not np.allclose(hidden_with_exclusion.data, hidden_without.data)

    @pytest.mark.parametrize("model_cls, golden", [
        (NADE, [-0.013752774183075338, -0.03223549084314764,
                0.007711440834958167, 0.010223365750834644,
                0.013882452697650371, 0.027097728852783613,
                0.018075689021233535, 0.009222816393294243]),
        (CFUIcA, [-0.013752774183075338, -0.03223549084314764,
                  0.03921995619829196, 0.020844663973888802,
                  0.004568650422504605, 0.009209051676132986,
                  0.011025036261279614, 0.01760292904853685]),
    ])
    def test_autoregressive_scores_float64_bit_identical(
            self, frozen_taobao, model_cls, golden):
        """NADE and CF-UIcA share one hidden-state helper; recorded from
        their two separate implementations before it was shared."""
        model = model_cls(frozen_taobao, seed=0)
        model.eval()
        scores = model.score(np.arange(8), np.arange(8, 16))
        assert (scores == np.array(golden)).all()

    def test_ngcf_graph_modes(self, split):
        merged = NGCF(split.train, graph_mode="merged", seed=0)
        target = NGCF(split.train, graph_mode="target", seed=0)
        assert merged.engine.adjacency.nnz >= target.engine.adjacency.nnz
        with pytest.raises(ValueError):
            NGCF(split.train, graph_mode="bogus")

    def test_nmtr_cascade_depth(self, split):
        model = NMTR(split.train, seed=0)
        users = np.array([0, 1])
        items = np.array([2, 3])
        # target is the last behavior → cascade over all K heads
        full = model._cascaded_logits(users, items, model._target_index)
        first = model._cascaded_logits(users, items, 0)
        assert not np.allclose(full.data, first.data)

    def test_nmtr_trains_with_the_configured_loss(self, split):
        config = dict(epochs=2, steps_per_epoch=3, batch_users=8, per_user=2,
                      seed=0)
        losses = {}
        for loss in ("hinge", "bpr"):
            model = NMTR(split.train, seed=0)
            history = model.fit(split.train, TrainConfig(loss=loss, **config))
            losses[loss] = [row["loss"] for row in history.rows]
        assert all(np.isfinite(losses["bpr"]))
        assert losses["bpr"] != losses["hinge"]

    def test_nmtr_task_weights_validated(self, split):
        with pytest.raises(ValueError):
            NMTR(split.train, task_weights=[1.0])

    def test_dipn_sequences_respect_max_len(self, split):
        model = DIPN(split.train, max_seq_len=5, seed=0)
        items, behaviors, mask = model._sequences
        assert items.shape == (split.train.num_users, 5)
        assert mask.max() <= 1.0
        # sequences are chronologically most recent: mask is a prefix of ones
        for row in mask:
            ones = int(row.sum())
            np.testing.assert_array_equal(row[:ones], 1.0)

    def test_dipn_intent_cache_invalidation(self, split):
        model = DIPN(split.train, seed=0)
        users, items = np.array([0]), np.array([1])
        before = model.score(users, items)
        model.user_embeddings.weight.data += 1.0
        model.on_step_end()
        after = model.score(users, items)
        assert not np.allclose(before, after)

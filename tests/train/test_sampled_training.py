"""Mini-batch (sampled-propagation) training: config plumbing, parity, smoke."""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import build_eval_candidates, leave_one_out_split, taobao_like
from repro.eval import evaluate_model
from repro.models import BiasMF, NGCF
from repro.tensor import RowSparseGrad
from repro.train import TrainConfig, Trainer


@pytest.fixture(scope="module")
def tiny_split():
    return leave_one_out_split(taobao_like(num_users=60, num_items=150, seed=0))


class TestConfigPlumbing:
    @pytest.mark.parametrize("overrides, message", [
        (dict(propagation="half"), "unknown propagation mode 'half'"),
        (dict(propagation="sampled"), 'propagation="async", workers=0'),
        (dict(loss="nope"), "unknown loss 'nope'"),
        (dict(workers=-1), "workers must be >= 0"),
        (dict(prefetch_depth=0), "prefetch_depth must be >= 1"),
        # 0 means "no cap" only on the CLI (mapped to None there); in the
        # API it would silently sample nothing
        (dict(propagation="async", fanout=0), "fanout value must be >= 1"),
    ])
    def test_bad_field_rejected_at_construction(self, overrides, message):
        # every enum/range field fails in TrainConfig itself, before a
        # Trainer (or a background worker) ever sees it
        with pytest.raises(ValueError, match=message):
            TrainConfig(**overrides)

    def test_epoch_loss_normalized_per_step(self, tiny_split):
        model = BiasMF(tiny_split.train.num_users, tiny_split.train.num_items, seed=0)
        config = TrainConfig(epochs=1, steps_per_epoch=4, batch_users=6,
                             per_user=2, seed=0, lr=1e-6)
        history = Trainer(model, tiny_split.train, config).run()
        # per-step normalization: an epoch's loss is the mean per-step value,
        # each step being a sum over ~batch pairs + the L2 term; with margin
        # 1.0 and near-zero scores each pair contributes ~1, so the reported
        # loss must be on the order of the per-step pair count, not O(1)
        assert history.rows[0]["loss"] > 2.0


class TestMiniBatchFallback:
    def test_non_graph_model_trains_in_async_mode(self, tiny_split):
        model = BiasMF(tiny_split.train.num_users, tiny_split.train.num_items, seed=0)
        config = TrainConfig(epochs=6, steps_per_epoch=4, batch_users=12,
                             per_user=2, propagation="async", workers=0,
                             seed=0)
        history = Trainer(model, tiny_split.train, config).run()
        losses = history.series("loss")
        assert losses[-1] < losses[0]

    def test_default_l2_batch_matches_full(self, tiny_split):
        # models without embedding tables keep the fallback: every
        # parameter is dense-touched each step, so batch L2 == full L2
        # (BiasMF/NCF now override l2_batch batch-locally — see
        # tests/models/test_sparse_baselines.py)
        from repro.models.base import Recommender
        from repro.nn.losses import l2_regularization
        from repro.nn.module import Parameter

        class DenseOnly(Recommender):
            def __init__(self):
                super().__init__(4, 4)
                self.w = Parameter(np.arange(6, dtype=np.float64), name="w")

        model = DenseOnly()
        users = np.array([0, 1]); items = np.array([2, 3])
        batch = model.l2_batch(users, items, items, 1e-3)
        full = l2_regularization(model.parameters(), 1e-3)
        assert batch.item() == pytest.approx(full.item())


class TestMiniBatchGNMR:
    def test_row_sparse_grads_reach_tables(self, tiny_split):
        model = GNMR(tiny_split.train, GNMRConfig(pretrain=False, seed=0))
        users = np.arange(6); pos = np.arange(6); neg = np.arange(6, 12)
        block = model.extract_block(users, pos, neg, fanout=3,
                                    rng=np.random.default_rng(0))
        pos_s, neg_s = model.block_batch_scores(users, pos, neg, block)
        loss = (1.0 - pos_s + neg_s).relu().sum()
        loss = loss + model.l2_batch(users, pos, neg, 1e-4)
        loss.backward()
        assert isinstance(model.user_embeddings.grad, RowSparseGrad)
        assert isinstance(model.item_embeddings.grad, RowSparseGrad)
        # layer parameters still get dense gradients
        layer_param = model.layers[0].aggregation.w3
        assert isinstance(layer_param.grad, np.ndarray)

    def test_sampled_vs_full_metric_within_tolerance(self, tiny_split):
        candidates = build_eval_candidates(
            tiny_split.train, tiny_split.test_users, tiny_split.test_items,
            num_negatives=49, rng=np.random.default_rng(0))

        def train_one(propagation):
            model = GNMR(tiny_split.train,
                         GNMRConfig(pretrain=False, seed=0, num_layers=1))
            config = TrainConfig(epochs=8, steps_per_epoch=6, batch_users=16,
                                 per_user=2, seed=0, propagation=propagation,
                                 workers=0, fanout=8)
            history = Trainer(model, tiny_split.train, config).run()
            outcome = evaluate_model(model, candidates)
            return history.series("loss"), outcome.hr(10)

        full_losses, full_hr = train_one("full")
        sampled_losses, sampled_hr = train_one("async")
        assert full_losses[-1] < full_losses[0]
        assert sampled_losses[-1] < sampled_losses[0]
        assert abs(full_hr - sampled_hr) <= 0.25

    def test_sampled_ngcf_trains(self, tiny_split):
        model = NGCF(tiny_split.train, seed=0, num_layers=1)
        config = TrainConfig(epochs=4, steps_per_epoch=4, batch_users=12,
                             per_user=2, propagation="async", workers=0,
                             fanout=5, seed=0)
        history = Trainer(model, tiny_split.train, config).run()
        losses = history.series("loss")
        assert losses[-1] < losses[0]
        assert not model.training  # trainer leaves the model in eval mode


class TestFullPathUnchanged:
    def test_full_propagation_float64_golden(self, tiny_split):
        # the full-graph float64 path must stay bit-identical: same batches,
        # same losses, same parameters as the pre-refactor trainer
        model_a = GNMR(tiny_split.train,
                       GNMRConfig(pretrain=False, seed=0, num_layers=1))
        model_b = GNMR(tiny_split.train,
                       GNMRConfig(pretrain=False, seed=0, num_layers=1))
        config = TrainConfig(epochs=2, steps_per_epoch=3, batch_users=8,
                             per_user=2, seed=0)
        Trainer(model_a, tiny_split.train, config).run()
        Trainer(model_b, tiny_split.train, config).run()
        for (name, pa), (_, pb) in zip(model_a.named_parameters(),
                                       model_b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=name)

"""Row-sparse mini-batch paths of the embedding-table baselines (BiasMF, NCF)."""

import numpy as np
import pytest

from repro.models import BiasMF
from repro.models.ncf import NCFGMF, NCFMLP, NeuMF
from repro.tensor import RowSparseGrad

ALL = [BiasMF, NCFGMF, NCFMLP, NeuMF]

SPARSE_TABLES = {
    BiasMF: ["user_factors", "item_factors", "user_bias", "item_bias"],
    NCFGMF: ["user_embeddings.weight", "item_embeddings.weight"],
    NCFMLP: ["user_embeddings.weight", "item_embeddings.weight"],
    NeuMF: ["gmf_user.weight", "gmf_item.weight",
            "mlp_user.weight", "mlp_item.weight"],
}


@pytest.fixture
def batch():
    return (np.array([0, 1, 2, 1]), np.array([3, 4, 5, 6]),
            np.array([7, 8, 9, 3]))


@pytest.mark.parametrize("cls", ALL)
class TestSparseBaselines:
    def test_block_scores_match_dense(self, cls, batch):
        users, pos, neg = batch
        model = cls(20, 30, seed=0)
        dense_pos, dense_neg = model.batch_scores(users, pos, neg)
        sparse_pos, sparse_neg = model.block_batch_scores(users, pos, neg, None)
        np.testing.assert_allclose(sparse_pos.data, dense_pos.data)
        np.testing.assert_allclose(sparse_neg.data, dense_neg.data)

    def test_tables_get_row_sparse_grads(self, cls, batch):
        users, pos, neg = batch
        model = cls(20, 30, seed=0)
        sparse_pos, sparse_neg = model.block_batch_scores(users, pos, neg, None)
        loss = (sparse_pos - sparse_neg).sum()
        loss = loss + model.l2_batch(users, pos, neg, 1e-3)
        loss.backward()
        params = dict(model.named_parameters())
        for name in SPARSE_TABLES[cls]:
            assert isinstance(params[name].grad, RowSparseGrad), name
            touched = set(params[name].grad.indices.tolist())
            universe = set(users.tolist()) | set(pos.tolist()) | set(neg.tolist())
            assert touched <= universe, name

    def test_sparse_grads_match_dense_grads(self, cls, batch):
        users, pos, neg = batch

        def grads(use_block):
            model = cls(20, 30, seed=0)
            if use_block:
                p, n = model.block_batch_scores(users, pos, neg, None)
            else:
                p, n = model.batch_scores(users, pos, neg)
            ((p - n) * (p - n)).sum().backward()
            return {name: param.grad.to_dense()
                    if isinstance(param.grad, RowSparseGrad) else param.grad
                    for name, param in model.named_parameters()}

        dense = grads(False)
        sparse = grads(True)
        for name in dense:
            np.testing.assert_allclose(sparse[name], dense[name],
                                       atol=1e-12, err_msg=name)

    def test_l2_batch_is_batch_local(self, cls, batch):
        users, pos, neg = batch
        model = cls(20, 30, seed=0)
        reg = model.l2_batch(users, pos, neg, 1e-2)
        reg.backward()
        params = dict(model.named_parameters())
        for name in SPARSE_TABLES[cls]:
            grad = params[name].grad
            assert isinstance(grad, RowSparseGrad), name
            # rows outside the batch carry no regularization gradient
            dense = grad.to_dense()
            untouched = np.setdiff1d(
                np.arange(dense.shape[0]),
                np.concatenate([users, pos, neg]))
            assert np.all(dense[untouched] == 0), name

    def test_mini_batch_training_converges(self, cls):
        from repro.data import leave_one_out_split, taobao_like
        from repro.train import TrainConfig, Trainer

        split = leave_one_out_split(taobao_like(num_users=40, num_items=90,
                                                seed=0))
        model = cls(split.train.num_users, split.train.num_items, seed=0)
        config = TrainConfig(epochs=6, steps_per_epoch=4, batch_users=10,
                             per_user=2, propagation="async", workers=0,
                             seed=0)
        history = Trainer(model, split.train, config).run()
        losses = history.series("loss")
        assert losses[-1] < losses[0]

"""Tests of the full-catalog ranking extension and AUC."""

import numpy as np
import pytest

from repro.data import leave_one_out_split
from repro.eval import evaluate_full_ranking


class OracleModel:
    """Knows the held-out items and scores them highest."""

    def __init__(self, test_users, test_items, num_items):
        self.lookup = dict(zip(test_users.tolist(), test_items.tolist()))
        self.num_items = num_items

    def score(self, users, items):
        return np.array([
            10.0 if self.lookup.get(int(u)) == int(i) else 0.0
            for u, i in zip(users, items)
        ])


class TestFullRanking:
    def test_oracle_ranks_first(self, small_taobao):
        split = leave_one_out_split(small_taobao)
        oracle = OracleModel(split.test_users, split.test_items,
                             small_taobao.num_items)
        result = evaluate_full_ranking(oracle, split.train,
                                       split.test_users, split.test_items)
        np.testing.assert_array_equal(result.ranks, 0)
        assert result.hr(1) == 1.0

    def test_training_positives_masked(self, small_taobao):
        """A model scoring train positives highest must not be penalized."""
        split = leave_one_out_split(small_taobao)

        class TrainFavoring:
            def __init__(self, train):
                self.positives = {
                    u: set(train.user_target_items(u).tolist())
                    for u in range(train.num_users)
                }

            def score(self, users, items):
                return np.array([
                    5.0 if int(i) in self.positives[int(u)] else 0.0
                    for u, i in zip(users, items)
                ])

        model = TrainFavoring(split.train)
        result = evaluate_full_ranking(model, split.train,
                                       split.test_users, split.test_items)
        # positives all score 0 like other unseen items → ties only
        assert (result.ranks < split.train.num_items).all()

    def test_batching_consistent(self, small_taobao):
        split = leave_one_out_split(small_taobao)
        oracle = OracleModel(split.test_users, split.test_items,
                             small_taobao.num_items)
        a = evaluate_full_ranking(oracle, split.train, split.test_users,
                                  split.test_items, batch_users=3)
        b = evaluate_full_ranking(oracle, split.train, split.test_users,
                                  split.test_items, batch_users=64)
        np.testing.assert_array_equal(a.ranks, b.ranks)


class TestApproxFullRanking:
    """retriever="ivf": ranks through the approximate serving path."""

    @pytest.fixture(scope="class")
    def gnmr_split(self, small_taobao):
        from repro.core import GNMR, GNMRConfig

        split = leave_one_out_split(small_taobao)
        return GNMR(split.train, GNMRConfig(pretrain=False, seed=0)), split

    def test_exhaustive_matches_exact(self, gnmr_split):
        model, split = gnmr_split
        exact = evaluate_full_ranking(model, split.train, split.test_users,
                                      split.test_items)
        approx = evaluate_full_ranking(
            model, split.train, split.test_users, split.test_items,
            retriever="ivf",
            ann={"nprobe": 10**9, "quant": "none",
                 "eval_k": split.train.num_items})
        np.testing.assert_array_equal(approx.ranks, exact.ranks)

    def test_truncation_semantics(self, gnmr_split):
        """Ranks land inside [0, eval_k) or at num_items (a miss)."""
        model, split = gnmr_split
        eval_k = 5
        result = evaluate_full_ranking(
            model, split.train, split.test_users, split.test_items,
            retriever="ivf", ann={"nprobe": 2, "eval_k": eval_k})
        inside = result.ranks < eval_k
        assert np.all(inside | (result.ranks == split.train.num_items))
        # metrics at cutoffs <= eval_k stay well-defined
        assert 0.0 <= result.hr(eval_k) <= 1.0

    def test_unknown_retriever_rejected(self, gnmr_split):
        model, split = gnmr_split
        with pytest.raises(ValueError, match="unknown retriever"):
            evaluate_full_ranking(model, split.train, split.test_users,
                                  split.test_items, retriever="lsh")

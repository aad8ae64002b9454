"""Tests of seed-replicated evaluation."""

import numpy as np
import pytest

from repro.analysis import replicate
from repro.data import taobao_like
from repro.models import BiasMF
from repro.train import TrainConfig

FAST = TrainConfig(epochs=3, steps_per_epoch=4, batch_users=8, per_user=2,
                   lr=5e-3, seed=0)


class TestReplicate:
    @pytest.fixture(scope="class")
    def result(self):
        return replicate(
            dataset_factory=lambda s: taobao_like(num_users=30, num_items=80,
                                                  seed=s),
            model_factory=lambda train: BiasMF(train.num_users, train.num_items,
                                               seed=0),
            train_config=FAST,
            seeds=(0, 1),
            num_negatives=20,
        )

    def test_one_run_per_seed(self, result):
        assert len(result) == 2
        assert len(result.ranks) == 2

    def test_metrics_present(self, result):
        for run in result.per_run:
            assert "HR@10" in run and "NDCG@10" in run

    def test_summary_aggregates(self, result):
        summary = result.summary()
        values = [run["HR@10"] for run in result.per_run]
        assert summary["HR@10"][0] == pytest.approx(np.mean(values))

    def test_ranks_usable_for_paired_tests(self, result):
        # ranks arrays may differ in length across seeds (different splits)
        for ranks in result.ranks:
            assert ranks.ndim == 1 and ranks.size > 0

    def test_empty_summary(self):
        from repro.analysis import ReplicateResult

        assert ReplicateResult().summary() == {}

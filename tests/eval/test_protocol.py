"""Tests of the sampled ranking protocol and EvaluationResult."""

import numpy as np
import pytest

from repro.data.negatives import EvalCandidates
from repro.eval import EvaluationResult, evaluate_model


class PerfectModel:
    """Scores equal to -(item index): item 0 always wins."""

    def score(self, users, items):
        return -items.astype(float)


class AntiModel:
    def score(self, users, items):
        return items.astype(float)


@pytest.fixture
def candidates():
    users = np.arange(6)
    items = np.tile(np.arange(11), (6, 1))  # positive is item 0, column 0
    return EvalCandidates(users=users, items=items)


class TestEvaluateModel:
    def test_perfect_scorer(self, candidates):
        result = evaluate_model(PerfectModel(), candidates)
        assert result.hr(1) == 1.0
        assert result.ndcg(10) == pytest.approx(1.0)
        np.testing.assert_array_equal(result.ranks, 0)

    def test_worst_scorer(self, candidates):
        result = evaluate_model(AntiModel(), candidates)
        assert result.hr(10) == 0.0
        np.testing.assert_array_equal(result.ranks, 10)

    def test_batching_matches_unbatched(self, candidates):
        a = evaluate_model(PerfectModel(), candidates, batch_size=2)
        b = evaluate_model(PerfectModel(), candidates, batch_size=512)
        np.testing.assert_array_equal(a.ranks, b.ranks)

    def test_random_scores_near_uniform(self):
        rng = np.random.default_rng(0)
        users = np.arange(400)
        items = np.tile(np.arange(100), (400, 1))
        candidates = EvalCandidates(users=users, items=items)

        class RandomModel:
            def score(self, users, items):
                return rng.random(len(users))

        result = evaluate_model(RandomModel(), candidates)
        # positive has 10% chance in the top-10 of 100 candidates
        assert result.hr(10) == pytest.approx(0.1, abs=0.06)


class TestEvaluationResult:
    def test_as_dict_keys(self):
        result = EvaluationResult(ranks=np.array([0, 4, 12]))
        table = result.as_dict()
        assert "HR@10" in table and "NDCG@10" in table and "MRR" in table

    def test_caching_consistent(self):
        result = EvaluationResult(ranks=np.array([0, 2, 11]))
        assert result.hr(10) == result.hr(10)
        assert result.ndcg(5) == result.ndcg(5)

    def test_len(self):
        assert len(EvaluationResult(ranks=np.array([1, 2, 3]))) == 3

    def test_hr_ndcg_consistency(self):
        ranks = np.array([0, 1, 5, 20])
        result = EvaluationResult(ranks=ranks)
        assert result.ndcg(10) <= result.hr(10)
        assert result.hr(1) <= result.hr(10)

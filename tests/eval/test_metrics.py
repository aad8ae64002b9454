"""Tests of ranking metrics, including hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import hit_ratio, mrr, ndcg, recall
from repro.eval.metrics import ranks_of_positives


def rank_of_positive(scores, positive_index=0):
    return int(ranks_of_positives(np.array([scores]), positive_index)[0])


class TestRankOfPositive:
    def test_best(self):
        assert rank_of_positive(np.array([5.0, 1.0, 2.0])) == 0

    def test_worst(self):
        assert rank_of_positive(np.array([0.0, 1.0, 2.0])) == 2

    def test_middle(self):
        assert rank_of_positive(np.array([1.5, 1.0, 2.0])) == 1

    def test_ties_pessimistic(self):
        assert rank_of_positive(np.array([1.0, 1.0, 1.0])) == 2

    def test_positive_index_argument(self):
        assert rank_of_positive(np.array([0.0, 9.0]), positive_index=1) == 0


class TestHitRatio:
    def test_all_hits(self):
        assert hit_ratio(np.array([0, 1, 2]), top_n=5) == 1.0

    def test_no_hits(self):
        assert hit_ratio(np.array([10, 20]), top_n=5) == 0.0

    def test_boundary_exclusive(self):
        # rank 5 (0-based) is position 6 → outside top-5
        assert hit_ratio(np.array([5]), top_n=5) == 0.0
        assert hit_ratio(np.array([4]), top_n=5) == 1.0

    def test_empty(self):
        assert hit_ratio(np.array([]), top_n=5) == 0.0

    def test_recall_equals_hr(self):
        ranks = np.array([0, 3, 7, 12])
        assert recall(ranks, 10) == hit_ratio(ranks, 10)


class TestNDCG:
    def test_rank_zero_gives_one(self):
        assert ndcg(np.array([0]), top_n=10) == pytest.approx(1.0)

    def test_rank_one_value(self):
        assert ndcg(np.array([1]), top_n=10) == pytest.approx(1.0 / np.log2(3))

    def test_outside_cutoff_zero(self):
        assert ndcg(np.array([10]), top_n=10) == 0.0

    def test_average_over_users(self):
        value = ndcg(np.array([0, 10]), top_n=10)
        assert value == pytest.approx(0.5)

    def test_empty(self):
        assert ndcg(np.array([]), 5) == 0.0


class TestOtherMetrics:
    def test_mrr(self):
        assert mrr(np.array([0, 1])) == pytest.approx((1.0 + 0.5) / 2)

    def test_mrr_empty(self):
        assert mrr(np.array([])) == 0.0


ranks_strategy = st.lists(st.integers(min_value=0, max_value=99),
                          min_size=1, max_size=50).map(np.array)


@given(ranks_strategy, st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_hr_bounds_and_monotonicity(ranks, n):
    assert 0.0 <= hit_ratio(ranks, n) <= 1.0
    assert hit_ratio(ranks, n) <= hit_ratio(ranks, n + 1)


@given(ranks_strategy, st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_ndcg_bounded_by_hr(ranks, n):
    """Each user's gain ≤ 1 and zero unless hit, so NDCG ≤ HR."""
    assert 0.0 <= ndcg(ranks, n) <= hit_ratio(ranks, n) + 1e-12


@given(ranks_strategy)
@settings(max_examples=50, deadline=None)
def test_better_ranks_never_hurt(ranks):
    improved = np.maximum(ranks - 1, 0)
    for n in (1, 5, 10):
        assert hit_ratio(improved, n) >= hit_ratio(ranks, n)
        assert ndcg(improved, n) >= ndcg(ranks, n) - 1e-12
    assert mrr(improved) >= mrr(ranks)

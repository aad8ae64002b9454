"""Ranking metrics: HR@N and NDCG@N (plus MRR / recall).

The protocol places exactly one positive among the candidates of each test
user, so HR@N is the fraction of users whose positive ranks within the top
N, and NDCG@N reduces to 1 / log2(rank + 1) averaged over users (0 when the
positive falls outside the top N) — exactly the quantities in Tables II/III.
"""

from __future__ import annotations

import numpy as np


def ranks_of_positives(scores: np.ndarray, positive_index: int = 0) -> np.ndarray:
    """0-based rank of the positive in each row of a (users × candidates)
    score matrix, under descending scores.

    One comparison pass over the whole matrix. Ties are broken
    pessimistically (the positive loses), which keeps the metric
    conservative and deterministic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = scores[:, positive_index][:, None]
    better = np.sum(scores > positive, axis=1)
    ties = np.sum(scores == positive, axis=1) - 1  # exclude the positive itself
    return (better + np.maximum(ties, 0)).astype(np.int64)


def hit_ratio(ranks: np.ndarray, top_n: int) -> float:
    """HR@N: fraction of test users whose positive is in the top N."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float(np.mean(ranks < top_n))


def ndcg(ranks: np.ndarray, top_n: int) -> float:
    """NDCG@N with a single relevant item: mean of 1/log2(rank+2) if hit."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    gains = np.where(ranks < top_n, 1.0 / np.log2(ranks + 2.0), 0.0)
    return float(np.mean(gains))


def mrr(ranks: np.ndarray) -> float:
    """Mean reciprocal rank of the positive."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float(np.mean(1.0 / (ranks + 1.0)))


def recall(ranks: np.ndarray, top_n: int) -> float:
    """Recall@N — identical to HR@N under the 1-positive protocol."""
    return hit_ratio(ranks, top_n)

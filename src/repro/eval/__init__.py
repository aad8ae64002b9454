"""Evaluation: ranking metrics and the sampled candidate protocol."""

from repro.eval.metrics import (
    hit_ratio,
    mrr,
    ndcg,
    recall,
)
from repro.eval.protocol import (
    EvaluationResult,
    evaluate_full_ranking,
    evaluate_model,
)

__all__ = [
    "hit_ratio",
    "ndcg",
    "mrr",
    "recall",
    "EvaluationResult",
    "evaluate_model",
    "evaluate_full_ranking",
]

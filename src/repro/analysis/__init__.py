"""Result analysis: seed replication, summary statistics, significance.

Sampled-metric evaluation on small candidate sets is noisy (HR@10 std is
≈ sqrt(p(1−p)/U) ≈ 0.04 at U = 150 test users), so single-run comparisons
between close models are unreliable. This package provides the tooling a
careful user needs: run a model spec across seeds, aggregate mean ± std,
and compare two models with a paired bootstrap on per-user ranks.
"""

from repro.analysis.replication import ReplicateResult, replicate
from repro.analysis.stats import (
    bootstrap_paired_difference,
    mean_std,
    metric_std_error,
)

__all__ = [
    "replicate",
    "ReplicateResult",
    "mean_std",
    "metric_std_error",
    "bootstrap_paired_difference",
]

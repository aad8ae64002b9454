"""Experiment harness: the paper's evaluation as one experiment table.

========  =============================================
ID        Paper artifact
========  =============================================
table1    Dataset statistics (:func:`run_table1`)
table2    HR@10/NDCG@10, 13 models × 3 datasets
table3    HR@N/NDCG@N sweep, N ∈ {1, 3, 5, 7, 9}
table4    Behavior-type ablation
fig2      GNMR-be / GNMR-ma ablation
fig3      Propagation-depth sweep
ext       Extension ablations (init / loss / aggregator)
========  =============================================

Every id but ``table1`` is an entry of :data:`EXPERIMENTS` — rows to
train, metric columns, the paper's numbers and the shape claims checked
on the result — run by :func:`run_experiment` and from the command line
by ``python -m repro.cli run <id> --dataset <name>``.
"""

from repro.experiments.specs import (
    ExperimentScale,
    SMALL_SCALE,
    TINY_SCALE,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    dataset_by_name,
    make_model,
    MODEL_NAMES,
    MULTI_BEHAVIOR_MODELS,
)
from repro.experiments.runners import (
    EXPERIMENTS,
    Experiment,
    run_experiment,
    run_table1,
)
from repro.experiments.reporting import format_claims, format_comparison, format_table

__all__ = [
    "ExperimentScale",
    "SMALL_SCALE",
    "TINY_SCALE",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "dataset_by_name",
    "make_model",
    "MODEL_NAMES",
    "MULTI_BEHAVIOR_MODELS",
    "EXPERIMENTS",
    "Experiment",
    "run_experiment",
    "run_table1",
    "format_table",
    "format_comparison",
    "format_claims",
]

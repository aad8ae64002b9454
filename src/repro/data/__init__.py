"""Datasets: container, splits, synthetic generators, ingestion."""

from repro.data.dataset import InteractionDataset
from repro.data.splits import (
    LeaveOneOutSplit,
    TemporalSplit,
    leave_one_out_split,
    temporal_split,
)
from repro.data.negatives import build_eval_candidates, EvalCandidates
from repro.data.synthetic import (
    SyntheticConfig,
    generate_multi_behavior_dataset,
    movielens_like,
    yelp_like,
    taobao_like,
    synthesize_attributes,
)
from repro.data.ingest import (
    BadRowError,
    IngestOptions,
    IngestReport,
    ingest_csv,
    iter_event_chunks,
    load_dataset_npz,
    save_dataset_npz,
)
from repro.data.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    build_scenario,
    get_scenario,
    list_scenarios,
    resolve_scenario,
)

__all__ = [
    "InteractionDataset",
    "LeaveOneOutSplit",
    "TemporalSplit",
    "leave_one_out_split",
    "temporal_split",
    "build_eval_candidates",
    "EvalCandidates",
    "SyntheticConfig",
    "generate_multi_behavior_dataset",
    "movielens_like",
    "yelp_like",
    "taobao_like",
    "synthesize_attributes",
    "BadRowError",
    "IngestOptions",
    "IngestReport",
    "ingest_csv",
    "iter_event_chunks",
    "load_dataset_npz",
    "save_dataset_npz",
    "SCENARIOS",
    "ScenarioSpec",
    "build_scenario",
    "get_scenario",
    "list_scenarios",
    "resolve_scenario",
]

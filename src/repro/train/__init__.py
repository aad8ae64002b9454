"""Training harness: one trainer, its batch sources, seeding, callbacks."""

from repro.train.seed import seeded_rng, spawn_rngs
from repro.train.trainer import Trainer, TrainConfig, EpochLog
from repro.train.pipeline import SampledBatchPipeline, PreparedBatch
from repro.train.callbacks import EarlyStopping, HistoryRecorder

__all__ = [
    "seeded_rng",
    "spawn_rngs",
    "Trainer",
    "TrainConfig",
    "EpochLog",
    "SampledBatchPipeline",
    "PreparedBatch",
    "EarlyStopping",
    "HistoryRecorder",
]

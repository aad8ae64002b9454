"""Training harness: one trainer, its batch sources, its history."""

from repro.train.trainer import Trainer, TrainConfig
from repro.train.pipeline import SampledBatchPipeline, PreparedBatch
from repro.train.callbacks import HistoryRecorder

__all__ = [
    "Trainer",
    "TrainConfig",
    "SampledBatchPipeline",
    "PreparedBatch",
    "HistoryRecorder",
]

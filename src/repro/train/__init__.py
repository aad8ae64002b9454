"""Training harness: one trainer, its batch sources, callbacks."""

from repro.train.trainer import Trainer, TrainConfig
from repro.train.pipeline import SampledBatchPipeline, PreparedBatch
from repro.train.callbacks import EarlyStopping, HistoryRecorder

__all__ = [
    "Trainer",
    "TrainConfig",
    "SampledBatchPipeline",
    "PreparedBatch",
    "EarlyStopping",
    "HistoryRecorder",
]

"""Utility helpers: the artifact container, checkpointing, hashing."""

from repro.utils.artifact import ArtifactError
from repro.utils.checkpoint import (
    load_checkpoint,
    peek_checkpoint,
    save_checkpoint,
)
from repro.utils.integrity import array_sha256

__all__ = ["save_checkpoint", "load_checkpoint", "peek_checkpoint",
           "ArtifactError", "array_sha256"]

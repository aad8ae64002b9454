"""Model checkpointing: ``state_dict`` ↔ one :mod:`repro.utils.artifact` file.

Parameter names (module paths, with dots) are the array names; metadata
(model name, step, metrics) is the artifact header. The container —
layout, atomic write, per-array fingerprints verified on load, what older
files still load — is :mod:`repro.utils.artifact`'s business.
"""

from __future__ import annotations

from pathlib import Path

from repro.utils.artifact import (
    ArtifactError,
    read_artifact,
    read_meta,
    write_artifact,
)

#: metadata ``format`` tag of a model checkpoint
CHECKPOINT_FORMAT = "checkpoint"


def _check_format(path: str | Path, meta: dict) -> None:
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ArtifactError(f"{path} is not a model checkpoint "
                            f"(format={meta.get('format')!r})")


def save_checkpoint(model, path: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write ``model.state_dict()`` (plus metadata) to ``path`` (.npz).

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`.
    metadata:
        JSON-serializable extras (epoch, metrics, config echo, ...). A
        model with sharded tables also gets its layout recorded
        (``shards`` / ``shard_strategy``, read from the model) unless the
        caller's metadata already says.
    """
    from repro.shard import shard_layout

    state = model.state_dict()
    meta = {**shard_layout(model), **(metadata or {}),
            "format": CHECKPOINT_FORMAT}
    meta.setdefault("num_parameters", int(sum(v.size for v in state.values())))
    return write_artifact(path, state, meta)


def peek_checkpoint(path: str | Path) -> dict:
    """Read only the metadata of a checkpoint, without a model.

    Lets tools (the CLI ``recommend`` command) discover how to reconstruct
    the model — name, dataset, scale, dtype — before building anything.
    """
    meta = read_meta(path)
    _check_format(path, meta)
    return meta


def load_checkpoint(model, path: str | Path, verify: bool = True) -> dict:
    """Load parameters saved by :func:`save_checkpoint`; returns metadata.

    Every array is re-hashed against the file's manifest before it reaches
    the model; a damaged or edited file raises
    :class:`~repro.utils.artifact.ArtifactError`. Pass ``verify=False`` to
    skip the hash check (e.g. deliberately patched archives).
    """
    state, meta = read_artifact(path, verify=verify)
    _check_format(path, meta)
    model.load_state_dict(state)
    return meta

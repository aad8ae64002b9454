"""Model checkpointing: ``state_dict`` ↔ one :mod:`repro.utils.artifact` file.

Parameter names (module paths, with dots) are the array names; metadata
(model name, step, metrics) is the artifact header. The container —
layout, atomic write, per-array fingerprints verified on load, what older
files still load — is :mod:`repro.utils.artifact`'s business.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.utils.artifact import (
    ArtifactError,
    read_artifact,
    read_meta,
    write_artifact,
)

#: metadata ``format`` tag of a model checkpoint
CHECKPOINT_FORMAT = "checkpoint"
#: block ``k`` of a table an earlier build stored as K row partitions
_SHARD_KEY = re.compile(r"^(?P<base>.+)\.shards\.(?P<k>\d+)$")
#: array-name prefix of a stored propagation table
_PROPAGATION = "propagation::"


def _check_format(path: str | Path, meta: dict) -> None:
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ArtifactError(f"{path} is not a model checkpoint "
                            f"(format={meta.get('format')!r})")


def save_checkpoint(model, path: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write ``model.state_dict()`` (plus metadata) to ``path`` (.npz).

    A model with ``propagation_tables`` adds them (free after
    ``evaluate_model``, one propagation otherwise) and their fingerprint.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`.
    metadata:
        JSON-serializable extras (epoch, metrics, config echo, ...).
    """
    state = model.state_dict()
    meta = {**(metadata or {}), "format": CHECKPOINT_FORMAT}
    meta.setdefault("num_parameters", int(sum(v.size for v in state.values())))
    if hasattr(model, "propagation_tables"):
        meta["propagation"], tables = model.propagation_tables()
        state.update({_PROPAGATION + name: table
                      for name, table in tables.items()})
    return write_artifact(path, state, meta)


def peek_checkpoint(path: str | Path) -> dict:
    """Read only the metadata of a checkpoint, without a model.

    Lets tools (the CLI ``recommend`` command) discover how to reconstruct
    the model — name, dataset, scale, dtype — before building anything.
    """
    meta = read_meta(path)
    _check_format(path, meta)
    return meta


def merge_shards(path: str | Path, model_state: dict, optimizer_states: dict,
                 meta: dict) -> tuple[dict, dict, dict]:
    """Files of earlier builds: K stored row blocks per table → one table.

    A table (and each Adam slot of it) may be stored as ``<base>.shards.<k>``
    arrays under the recorded ``shard_strategy``: block k is a contiguous
    run of rows (``"range"``) or rows k, k+K, … (``"hash"``). They go back
    under ``<base>`` bit for bit and the layout keys leave the metadata;
    what cannot be merged exactly raises :class:`ArtifactError`.
    """
    strategy = meta.get("shard_strategy")
    meta = {key: value for key, value in meta.items()
            if key not in ("shards", "shard_strategy")}
    model_state, optimizer_states = dict(model_state), dict(optimizer_states)
    tables: dict[str, dict[int, str]] = {}
    for match in filter(None, map(_SHARD_KEY.match, model_state)):
        tables.setdefault(match["base"], {})[int(match["k"])] = match[0]

    def refuse(base, why):
        return ArtifactError(f"{path}: the stored row blocks of table "
                             f"{base!r} cannot be merged: {why}")

    def merge(base, what, parts, rows):
        count, shapes = len(parts), [part.shape for part in parts]
        sizes = [rows // count + (k < rows % count) for k in range(count)]
        if shapes != [(size,) + shapes[0][1:] for size in sizes]:
            raise refuse(base, f"{what} blocks {shapes} are not {rows} rows "
                               f"split {sizes}")
        if strategy != "hash":
            return np.concatenate(parts)
        out = np.empty((rows,) + shapes[0][1:], dtype=parts[0].dtype)
        for k, part in enumerate(parts):
            out[k::count] = part
        return out

    for base, by_k in tables.items():
        keys = [by_k.get(k) for k in range(len(by_k))]
        if None in keys:
            raise refuse(base, f"block indices {sorted(by_k)} are not dense")
        if len(keys) > 1 and strategy not in ("range", "hash"):
            raise refuse(base, f"shard_strategy is {strategy!r}, and range "
                               "and hash blocks have equal sizes")
        parts = [model_state.pop(key) for key in keys]
        rows = sum(len(part) for part in parts)
        model_state[base] = merge(base, "weight", parts, rows)
        if not any(key in optimizer_states for key in keys):
            continue
        states = [optimizer_states.pop(key, {}) for key in keys]
        merged = optimizer_states[base] = {}
        for slot in sorted(set().union(*states)):
            values = [state.get(slot) for state in states]
            if any(value is None for value in values):
                raise refuse(base, f"slot {slot!r} is on some blocks only")
            if isinstance(values[0], np.ndarray):
                merged[slot] = merge(base, f"slot {slot!r}", values, rows)
            elif values.count(values[0]) == len(values):
                merged[slot] = values[0]
            else:
                raise refuse(base, f"slot {slot!r} differs by block: {values}")
    return model_state, optimizer_states, meta


def load_checkpoint(model, path: str | Path, verify: bool = True) -> dict:
    """Load parameters saved by :func:`save_checkpoint`; returns metadata.

    Every array is re-hashed against the file's manifest before it reaches
    the model; a damaged or edited file raises
    :class:`~repro.utils.artifact.ArtifactError`. Pass ``verify=False`` to
    skip the hash check (e.g. deliberately patched archives); stored
    propagation tables are then left unused.
    """
    state, meta = read_artifact(path, verify=verify)
    _check_format(path, meta)
    tables = {name[len(_PROPAGATION):]: state.pop(name) for name in list(state)
              if name.startswith(_PROPAGATION)}
    state, _, meta = merge_shards(path, state, {}, meta)
    model.load_state_dict(state)
    if verify and tables and hasattr(model, "restore_propagation"):
        model.restore_propagation(meta.get("propagation"), tables)
    return meta

"""Mid-epoch training state: the on-disk format behind exact resume.

A *training state* is a superset of a model checkpoint: besides every
parameter table it persists the pieces that make a training run a pure
function of its config — the trainer's rng stream, the epoch/step cursor
into the step-ordered batch stream, per-parameter optimizer state (Adam
moments, step clocks and per-row counters), the learning-rate schedule
position and the recorded history. Restoring all of it and continuing is
bit-identical to never having stopped:
``train N epochs == train M + resume N-M`` for both propagation modes
(full/async, any workers), which is the oracle ``tests/train/test_resume``
pins.

The file is a :mod:`repro.utils.artifact` container: written atomically
(a crash — including SIGKILL — mid-save leaves the previous complete state
or the new one, never a torn file), every array fingerprinted and verified
on load.

Array names and metadata:

* ``model::{param}`` — one array per model parameter (``state_dict``),
* ``optim::{param}::{slot}`` — array-valued optimizer slots (Adam ``m``,
  ``v``, ``row_steps``, …), keyed by the owning parameter's name,
* scalar optimizer slots (``optim_scalars``) and all trainer scalars ride
  in the artifact's metadata,
* ``shards`` / ``shard_strategy`` — only in states of earlier builds
  that stored each table as K row blocks; such a state is merged back to
  one table per name as it is read
  (:func:`repro.utils.checkpoint.merge_shards`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.utils.artifact import ArtifactError, read_artifact, write_artifact
from repro.utils.checkpoint import merge_shards

#: metadata ``format`` tag distinguishing training states from checkpoints
TRAIN_STATE_FORMAT = "train-state"
#: 2: Adam lost its timestamped dense-then-sparse regime and with it the
#: ``row_t``/``lr_hist`` arrays and ``saw_dense``/``hist_base`` scalars
TRAIN_STATE_VERSION = 2

_MODEL_PREFIX = "model::"
_OPTIM_PREFIX = "optim::"

#: TrainConfig fields that must match between the saving and resuming run
#: for bit-exact continuation (``epochs`` may grow — that's the point)
RESUME_CONFIG_KEYS = (
    "steps_per_epoch", "batch_users", "per_user", "lr", "lr_decay",
    "l2_weight", "loss", "margin", "seed", "dtype", "propagation", "fanout",
)

#: options earlier builds echoed in a state's config, plus early
#: stopping's counters (``stopper``, beside it in the metadata), at the one
#: value this build trains with: Adam, no gradient clipping, an evaluation
#: every epoch, no early stop
REMOVED_OPTIONS = {"optimizer": "adam", "grad_clip": None, "eval_every": 1,
                   "stopper": None}


def config_echo(config) -> dict:
    """The resume-relevant slice of a :class:`TrainConfig`, JSON-ready."""
    echo = {}
    for key in RESUME_CONFIG_KEYS:
        value = getattr(config, key)
        if isinstance(value, tuple):
            value = list(value)
        echo[key] = value
    return echo


@dataclass
class TrainState:
    """A loaded training state, split into its three layers."""

    #: parameter name → array, exactly ``model.state_dict()`` at save time
    model_state: dict[str, np.ndarray]
    #: parameter name → per-parameter optimizer state dict
    optimizer_states: dict[str, dict]
    #: trainer scalars (epoch/step cursor, rng, scheduler, history, …)
    meta: dict

    @property
    def epoch(self) -> int:
        """Epoch in progress at save time (== epochs completed when the
        state was written at an epoch boundary or end of run)."""
        return int(self.meta["epoch"])

    @property
    def step_in_epoch(self) -> int:
        """Steps already consumed inside :attr:`epoch`."""
        return int(self.meta["step_in_epoch"])

    @property
    def global_step(self) -> int:
        """Batch-stream cursor: loop iterations consumed so far."""
        return int(self.meta["global_step"])

    @property
    def config(self) -> dict:
        return self.meta["config"]


def save_training_state(path: str | Path, model_state: dict[str, np.ndarray],
                        optimizer_states: dict[str, dict],
                        trainer_meta: dict) -> Path:
    """Write one atomic training-state file; returns the final path.

    ``model_state`` is a ``model.state_dict()`` mapping.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, value in model_state.items():
        arrays[_MODEL_PREFIX + name] = value
    scalars: dict[str, dict] = {}
    for pname, state in optimizer_states.items():
        scalar_slots = {}
        for slot, value in state.items():
            if "::" in slot:
                raise ValueError(f"optimizer slot name {slot!r} may not "
                                 "contain '::'")
            if isinstance(value, np.ndarray):
                arrays[f"{_OPTIM_PREFIX}{pname}::{slot}"] = value
            else:
                scalar_slots[slot] = value
        scalars[pname] = scalar_slots
    meta = dict(trainer_meta)
    meta["format"] = TRAIN_STATE_FORMAT
    meta["state_version"] = TRAIN_STATE_VERSION
    meta["optim_scalars"] = scalars
    return write_artifact(path, arrays, meta)


def unpack_training_state(path: str | Path, arrays: dict[str, np.ndarray],
                          meta: dict) -> TrainState:
    """Split an artifact read from ``path`` into a :class:`TrainState`."""
    if meta.get("format") != TRAIN_STATE_FORMAT:
        raise ArtifactError(
            f"{path} is not a training state (format="
            f"{meta.get('format')!r}); plain checkpoints hold no resume "
            "cursor — pass a file written by TrainConfig.save_state")
    model_state: dict[str, np.ndarray] = {}
    optimizer_states: dict[str, dict] = {
        pname: dict(slots)
        for pname, slots in meta.get("optim_scalars", {}).items()}
    for key, value in arrays.items():
        if key.startswith(_MODEL_PREFIX):
            model_state[key[len(_MODEL_PREFIX):]] = value
        elif key.startswith(_OPTIM_PREFIX):
            pname, slot = key[len(_OPTIM_PREFIX):].rsplit("::", 1)
            optimizer_states.setdefault(pname, {})[slot] = value
        else:
            raise ArtifactError(f"{path}: unrecognized training-state "
                                f"array {key!r}")
    if meta.get("state_version") == 1:
        for pname, slots in optimizer_states.items():
            if "row_t" in slots:
                raise ArtifactError(
                    f"{path}: version-1 training state holds Adam 'row_t' "
                    f"for parameter {pname!r} — the timestamped mixed "
                    "dense/sparse regime no longer exists, so this run "
                    "cannot be continued bit-exactly; resume it with the "
                    "build that wrote it")
            slots.pop("saw_dense", None)
            slots.pop("hist_base", None)
    model_state, optimizer_states, meta = merge_shards(
        path, model_state, optimizer_states, meta)
    return TrainState(model_state=model_state,
                      optimizer_states=optimizer_states, meta=meta)


def load_training_state(path: str | Path, verify: bool = True) -> TrainState:
    """Read a file written by :func:`save_training_state` (verified)."""
    return unpack_training_state(path, *read_artifact(path, verify=verify))


def check_resume_config(state: TrainState, config) -> None:
    """Refuse to resume under a config that changes the training stream.

    ``epochs`` may grow (resuming 6 → 10 is the whole point); everything
    in :data:`RESUME_CONFIG_KEYS` must match — those fields determine the
    batch stream, rng consumption, and optimizer arithmetic, so changing
    any of them silently breaks the bit-parity contract. A state whose run
    used an option this build no longer has (SGD, gradient clipping, an
    ``eval_every`` other than 1, early stopping) is refused by that
    option's name: no config here continues its trajectory.
    """
    saved = state.config
    earlier = {**saved, "stopper": state.meta.get("stopper")}
    for key, only in REMOVED_OPTIONS.items():
        if earlier.get(key, only) != only:
            raise ValueError(
                f"cannot resume: the saved run set {key}={earlier[key]!r}, "
                f"an option this build no longer has (it trains with "
                f"{key}={only!r} only); resume it with the build that "
                "wrote it")
    current = config_echo(config)
    mismatched = {key: (saved.get(key), current[key])
                  for key in RESUME_CONFIG_KEYS
                  if saved.get(key) != current[key]}
    if mismatched:
        detail = ", ".join(f"{k}: saved={s!r} now={n!r}"
                           for k, (s, n) in sorted(mismatched.items()))
        raise ValueError(f"cannot resume: config differs from the saved "
                         f"run ({detail})")

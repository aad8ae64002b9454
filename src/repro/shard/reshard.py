"""K→K' migration of sharded tables inside checkpoints and train states.

Production tables get resharded: a table trained across K shard servers
has to move to K' (scale-out, scale-in, or a range↔hash layout change)
without losing a step of training. Because a :class:`~repro.shard.ShardSpec`
is pure index arithmetic over one logical table, migration is exact:
assemble each table's K shard blocks back into the full logical array,
then re-split it under the new spec. No float is ever recomputed — rows
move, bit for bit.

Optimizer state moves *with its rows*. Every per-row slot (Adam moments
``m``/``v``, lazy per-row step counters) is assembled and re-split under
the same specs as its table, so a row's clock and moments follow it to its
new shard. Per-parameter scalars (the Adam step clock ``param_t``) are
validated equal across the old shards — the trainer advances every shard's
clock on every step, so they must agree — and replicated to each new shard.

The contract, pinned by ``tests/shard/test_reshard.py`` and the resume
parity suite: training resumed from a resharded training state bit-matches
training that never resharded (same loss trace, same final logical
tables), riding the PR-5 invariance that ``shards=K`` training is
layout-independent.

One documented limitation: a *lazy* Adam per-row counter that was never
materialized on some old shards but materialized on others cannot be
migrated exactly when shard boundaries move (the unmaterialized baseline
is a property of the shard's future first touch, not of its rows);
:class:`ReshardError` is raised rather than guessing. In practice every
shard is touched within the first training step, so counters materialize
together.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.shard.spec import STRATEGIES, ShardSpec

#: state-dict key of shard ``k`` of a sharded table (the attribute path
#: ``{base}.shards.{k}`` that :class:`~repro.shard.ShardedEmbedding`'s
#: parameter list produces)
_SHARD_KEY = re.compile(r"^(?P<base>.+)\.shards\.(?P<k>\d+)$")

#: optimizer-state slots indexed by table row (first dim == shard rows):
#: these migrate with their rows; every other slot is per-parameter and
#: must be identical across a table's shards
ROW_SLOTS = ("m", "v", "row_steps")


class ReshardError(ValueError):
    """A state cannot be migrated to the requested shard layout."""


def find_sharded_tables(keys) -> dict[str, list[str]]:
    """``base → [shard-0 key, …, shard-(K-1) key]`` over state-dict keys.

    Validates each table's shard indices are dense ``0..K-1``.
    """
    by_base: dict[str, dict[int, str]] = {}
    for key in keys:
        match = _SHARD_KEY.match(key)
        if match:
            by_base.setdefault(match["base"], {})[int(match["k"])] = key
    tables: dict[str, list[str]] = {}
    for base, by_k in sorted(by_base.items()):
        ks = sorted(by_k)
        if ks != list(range(len(ks))):
            raise ReshardError(f"table {base!r} has shard indices {ks}, "
                               f"expected 0..{len(ks) - 1}")
        tables[base] = [by_k[k] for k in ks]
    return tables


def _assemble(base: str, parts: list[np.ndarray],
              strategy: str) -> tuple[np.ndarray, ShardSpec]:
    """Full logical array + the old spec from per-shard blocks."""
    num_rows = int(sum(p.shape[0] for p in parts))
    spec = ShardSpec(num_rows, len(parts), strategy)
    sizes = spec.shard_sizes()
    for k, part in enumerate(parts):
        if part.shape[0] != sizes[k]:
            raise ReshardError(
                f"table {base!r} shard {k} holds {part.shape[0]} rows; a "
                f"{strategy!r} split of {num_rows} rows across "
                f"{len(parts)} shards owns {sizes[k]} — wrong "
                "--old-strategy or a corrupted state")
    return spec.assemble(parts), spec


def _split(full: np.ndarray, spec: ShardSpec) -> list[np.ndarray]:
    return [np.ascontiguousarray(full[spec.shard_rows(k)])
            for k in range(spec.num_shards)]


def _reshard_param_states(base: str, states: list[dict], old_spec: ShardSpec,
                          new_spec: ShardSpec) -> list[dict]:
    """Migrate one table's per-shard optimizer states to the new spec."""
    slot_names: set[str] = set()
    for state in states:
        slot_names.update(state)
    new_states: list[dict] = [{} for _ in range(new_spec.num_shards)]
    for slot in sorted(slot_names):
        present = [slot in state for state in states]
        if slot in ROW_SLOTS:
            if not all(present):
                owners = [k for k, p in enumerate(present) if p]
                raise ReshardError(
                    f"table {base!r} slot {slot!r} is materialized on "
                    f"shards {owners} but not the rest — lazy per-row "
                    "state cannot move across shard boundaries before it "
                    "materializes everywhere (train at least one step "
                    "touching every shard, then reshard)")
            full = old_spec.assemble([np.asarray(state[slot])
                                      for state in states])
            for k, block in enumerate(_split(full, new_spec)):
                new_states[k][slot] = block
            continue
        # per-parameter slot: equal across shards, replicated to each new one
        if not all(present):
            raise ReshardError(f"table {base!r} slot {slot!r} is missing "
                               "from some shards")
        first = states[0][slot]
        for k, state in enumerate(states[1:], start=1):
            if state[slot] != first:
                raise ReshardError(
                    f"table {base!r} slot {slot!r} differs between shard 0 "
                    f"and shard {k} ({first!r} vs {state[slot]!r}) — the "
                    "shards were not stepped in lockstep, so their clocks "
                    "cannot be replicated to a new layout")
        for state in new_states:
            state[slot] = first
    return new_states


def reshard_state(model_state: dict[str, np.ndarray],
                  optimizer_states: dict[str, dict] | None, *,
                  num_shards: int, strategy: str = "range",
                  old_strategy: str = "range",
                  ) -> tuple[dict, dict | None, dict]:
    """Migrate every sharded table in a state dict to ``num_shards``.

    Returns ``(new_model_state, new_optimizer_states, tables)`` where
    ``tables`` maps each migrated base name to its row count and old shard
    count. Unsharded entries pass through untouched (same objects).
    """
    tables = find_sharded_tables(model_state)
    if not tables:
        raise ReshardError(
            "no sharded tables found (no '<base>.shards.<k>' keys) — only "
            "models built with shards (e.g. --shards K) can be resharded")
    if strategy not in STRATEGIES or old_strategy not in STRATEGIES:
        raise ReshardError(f"strategy must be one of {STRATEGIES}")
    new_model = {key: value for key, value in model_state.items()
                 if _SHARD_KEY.match(key) is None}
    new_opt = None
    if optimizer_states is not None:
        new_opt = {key: value for key, value in optimizer_states.items()
                   if _SHARD_KEY.match(key) is None}
    info: dict[str, dict] = {}
    for base, keys in tables.items():
        parts = [np.asarray(model_state[key]) for key in keys]
        full, old_spec = _assemble(base, parts, old_strategy)
        try:
            new_spec = ShardSpec(old_spec.num_rows, num_shards, strategy)
        except ValueError as exc:
            raise ReshardError(
                f"cannot reshard table {base!r} to {num_shards} shards: "
                f"{exc}") from exc
        for k, block in enumerate(_split(full, new_spec)):
            new_model[f"{base}.shards.{k}"] = block
        info[base] = {"rows": old_spec.num_rows,
                      "old_shards": old_spec.num_shards}
        if optimizer_states is not None:
            old_states = [optimizer_states.get(key) for key in keys]
            present = [state is not None for state in old_states]
            if any(present):
                if not all(present):
                    raise ReshardError(
                        f"table {base!r} has optimizer state for some "
                        "shards but not others")
                migrated = _reshard_param_states(base, old_states, old_spec,
                                                 new_spec)
                for k, state in enumerate(migrated):
                    new_opt[f"{base}.shards.{k}"] = state
    return new_model, new_opt, info


def reshard_file(input_path: str | Path, output_path: str | Path,
                 num_shards: int, *, strategy: str | None = None,
                 old_strategy: str | None = None, verify: bool = True) -> dict:
    """Reshard a checkpoint or training-state file on disk.

    Accepts both artifact kinds (they share the archive format): a model
    checkpoint written by :func:`repro.utils.checkpoint.save_checkpoint`
    (tables are migrated) and a training state written by
    ``TrainConfig.save_state`` (tables *and* per-row optimizer state are
    migrated). Either way the file's ``shards`` / ``shard_strategy``
    metadata is updated, so the serving CLI rebuilds the right layout and
    the next reshard knows what it reads.

    Strategies default to the file's recorded ``shard_strategy`` (both
    old and new), so a plain ``reshard --shards K'`` keeps the layout
    family. Range and hash shards of one table have the same sizes, so
    nothing in the arrays tells them apart: a file with sharded tables and
    no recorded strategy (written before the layout was recorded) raises
    :class:`ReshardError` until ``old_strategy`` says which it is. The
    output is written atomically; returns a summary dict.
    """
    from repro.train.resume import (
        TRAIN_STATE_FORMAT,
        save_training_state,
        unpack_training_state,
    )
    from repro.utils.artifact import ArtifactError, read_artifact, write_artifact
    from repro.utils.checkpoint import CHECKPOINT_FORMAT

    if num_shards < 1:
        raise ReshardError("num_shards must be >= 1")
    arrays, meta = read_artifact(input_path, verify=verify)
    kind = meta.get("format")
    if kind == TRAIN_STATE_FORMAT:
        state = unpack_training_state(input_path, arrays, meta)
        model_state, optimizer_states = state.model_state, state.optimizer_states
    elif kind == CHECKPOINT_FORMAT:
        model_state, optimizer_states = arrays, None
    else:
        raise ArtifactError(f"{input_path} is neither a checkpoint nor a "
                            f"training state (format={kind!r})")
    old_strategy = old_strategy or meta.get("shard_strategy")
    if old_strategy is None and find_sharded_tables(model_state):
        raise ReshardError(
            f"{input_path} does not record the shard_strategy its tables "
            "were written under, and range and hash shards have the same "
            "sizes — pass --old-strategy range|hash")
    strategy = strategy or old_strategy
    new_model, new_opt, tables = reshard_state(
        model_state, optimizer_states, num_shards=num_shards,
        strategy=strategy, old_strategy=old_strategy)
    new_meta = dict(meta, shards=num_shards, shard_strategy=strategy)
    if kind == TRAIN_STATE_FORMAT:
        save_training_state(output_path, new_model, new_opt, new_meta)
    else:
        write_artifact(output_path, new_model, new_meta)
    return {"format": kind, "tables": tables, "shards": num_shards,
            "strategy": strategy, "old_strategy": old_strategy}

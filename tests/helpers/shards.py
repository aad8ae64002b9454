"""States as earlier builds stored them: a table as K row blocks.

Those builds could write each embedding table — and each per-row Adam slot
of it — as ``<base>.shards.<k>`` arrays, ``"range"`` (contiguous runs,
the remainder front-loaded) or ``"hash"`` (block k holds rows k, k+K, …).
The code that wrote them is gone; this slices an unsharded state the same
way so the read-side merge has files to be tested on.
"""

import numpy as np


def block_rows(rows: int, count: int, strategy: str) -> list[np.ndarray]:
    """The row ids of each of ``count`` blocks of a ``rows``-row table."""
    if strategy == "hash":
        return [np.arange(rows)[k::count] for k in range(count)]
    return np.array_split(np.arange(rows), count)


def split_state(model_state: dict, optimizer_states: dict, tables,
                count: int, strategy: str) -> tuple[dict, dict]:
    """``(model_state, optimizer_states)`` with ``tables`` cut in blocks."""
    model_out, optim_out = {}, {}
    for name, value in model_state.items():
        if name not in tables:
            model_out[name] = value
            if name in optimizer_states:
                optim_out[name] = optimizer_states[name]
            continue
        for k, rows in enumerate(block_rows(len(value), count, strategy)):
            model_out[f"{name}.shards.{k}"] = value[rows]
            if name in optimizer_states:
                optim_out[f"{name}.shards.{k}"] = {
                    slot: held[rows] if isinstance(held, np.ndarray) else held
                    for slot, held in optimizer_states[name].items()}
    return model_out, optim_out

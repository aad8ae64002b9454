"""Partitioning specs for sharded embedding tables.

A :class:`ShardSpec` describes how the rows of one logical table are split
across ``K`` shard-local tables — the parameter-server layout where each
server owns a row partition of the user/item embedding matrix. Two
strategies cover the standard deployments:

* ``"range"`` — contiguous row ranges (shard 0 owns rows ``[0, n0)``,
  shard 1 owns ``[n0, n0+n1)``, …), the layout that keeps locality for
  id-sorted access patterns and makes shard boundaries human-readable;
* ``"hash"`` — modulo partitioning (row ``r`` lives on shard ``r % K``),
  the layout that load-balances skewed id distributions (hot low ids
  spread across every shard).

The spec is pure index arithmetic: it owns no data, is cheap to construct,
and every method is vectorized over numpy index arrays. ``shard_rows(k)``
enumerates a shard's global rows in ascending order, and ``local_of`` is
defined so that ``shard_rows(k)[local_of(r)] == r`` for every row ``r``
owned by shard ``k`` — the old↔shard maps
:class:`~repro.shard.ShardedEmbedding` builds on.

>>> spec = ShardSpec(num_rows=10, num_shards=3, strategy="range")
>>> spec.shard_sizes()
[4, 3, 3]
>>> spec.shard_of([0, 3, 4, 9]).tolist()
[0, 0, 1, 2]
>>> ShardSpec(10, 3, strategy="hash").shard_rows(1).tolist()
[1, 4, 7]
"""

from __future__ import annotations

import numpy as np

#: partitioning strategies understood by :class:`ShardSpec`
STRATEGIES = ("range", "hash")


class ShardSpec:
    """Row-partitioning of a ``num_rows``-row table across ``num_shards``.

    Parameters
    ----------
    num_rows:
        Number of rows in the logical (unsharded) table.
    num_shards:
        K — number of logical shards; must be ≥ 1. ``num_shards=1`` is a
        valid degenerate spec (one shard owning every row) that the
        bit-parity contract is anchored on.
    strategy:
        ``"range"`` (contiguous row ranges) or ``"hash"`` (modulo).
    """

    __slots__ = ("num_rows", "num_shards", "strategy", "_offsets")

    def __init__(self, num_rows: int, num_shards: int, strategy: str = "range"):
        num_rows = int(num_rows)
        num_shards = int(num_shards)
        if num_rows < 0:
            raise ValueError("num_rows must be >= 0")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if num_shards > max(num_rows, 1):
            raise ValueError(
                f"cannot split {num_rows} rows across {num_shards} shards "
                "(at most one shard per row)")
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, "
                             f"got {strategy!r}")
        self.num_rows = num_rows
        self.num_shards = num_shards
        self.strategy = strategy
        # range strategy: front-load the remainder so sizes differ by ≤ 1
        base, extra = divmod(num_rows, num_shards)
        sizes = np.full(num_shards, base, dtype=np.int64)
        sizes[:extra] += 1
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardSpec(num_rows={self.num_rows}, "
                f"num_shards={self.num_shards}, strategy={self.strategy!r})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ShardSpec)
                and self.num_rows == other.num_rows
                and self.num_shards == other.num_shards
                and self.strategy == other.strategy)

    def __hash__(self) -> int:
        return hash((self.num_rows, self.num_shards, self.strategy))

    # ------------------------------------------------------------------
    # row → shard maps
    # ------------------------------------------------------------------
    def _check(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(f"row index out of range [0, {self.num_rows})")
        return rows

    def shard_of(self, rows) -> np.ndarray:
        """Shard id owning each of the given global rows."""
        rows = self._check(rows)
        if self.strategy == "hash":
            return rows % self.num_shards
        return np.searchsorted(self._offsets, rows, side="right") - 1

    def local_of(self, rows) -> np.ndarray:
        """Each row's index inside its owning shard's local table."""
        rows = self._check(rows)
        if self.strategy == "hash":
            return rows // self.num_shards
        return rows - self._offsets[self.shard_of(rows)]

    def shard_sizes(self) -> list[int]:
        """Rows owned per shard, ``sum == num_rows``."""
        return [int(self.shard_rows(k).size) for k in range(self.num_shards)]

    def shard_rows(self, shard: int) -> np.ndarray:
        """Global rows owned by ``shard``, ascending (the shard→old map).

        Ascending order means ``shard_rows(k)[local] == global`` inverts
        :meth:`local_of` exactly.
        """
        shard = self._check_shard(shard)
        if self.strategy == "hash":
            return np.arange(shard, self.num_rows, self.num_shards,
                             dtype=np.int64)
        return np.arange(self._offsets[shard], self._offsets[shard + 1],
                         dtype=np.int64)

    def _check_shard(self, shard: int) -> int:
        shard = int(shard)
        if not 0 <= shard < self.num_shards:
            raise IndexError(f"shard {shard} out of range "
                             f"[0, {self.num_shards})")
        return shard

    # ------------------------------------------------------------------
    # batch routing
    # ------------------------------------------------------------------
    def split(self, rows) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Route a global row batch to its shards.

        Returns ``(shard, local_rows, positions)`` triples — one per shard
        that owns at least one of the requested rows, in ascending shard
        order. ``positions`` are the indices into the input batch, so a
        per-shard result block can be scattered back into batch order;
        duplicate input rows stay duplicated (routing must not coalesce —
        gradient rows are summed later, by ``RowSparseGrad``).
        """
        rows = self._check(rows)
        shards = self.shard_of(rows)
        local = self.local_of(rows)
        out = []
        for k in range(self.num_shards):
            positions = np.flatnonzero(shards == k)
            if positions.size:
                out.append((k, local[positions], positions))
        return out

    def assemble(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reassemble one full table from per-shard row blocks.

        ``parts[k]`` must hold shard ``k``'s rows in ``shard_rows(k)``
        order. Inverse of slicing the table by ``shard_rows`` — bit-exact.
        """
        if len(parts) != self.num_shards:
            raise ValueError(f"expected {self.num_shards} parts, "
                             f"got {len(parts)}")
        parts = [np.asarray(part) for part in parts]
        row_shape = parts[0].shape[1:]
        dtype = np.result_type(*[p.dtype for p in parts]) if parts else None
        out = np.empty((self.num_rows,) + row_shape, dtype=dtype)
        for k, part in enumerate(parts):
            rows = self.shard_rows(k)
            if part.shape[0] != rows.size or part.shape[1:] != row_shape:
                raise ValueError(
                    f"shard {k} block has shape {part.shape}, expected "
                    f"({rows.size},) + {row_shape}")
            out[rows] = part
        return out

"""Sharded embedding tables with a drop-in ``nn.Embedding`` surface.

:class:`ShardedEmbedding` stores one logical ``(num_rows, *row_shape)``
table as K shard-local :class:`~repro.nn.module.Parameter` blocks laid out
by a :class:`~repro.shard.ShardSpec` — the parameter-server partitioning of
the user/item tables. The forward surfaces mirror the unsharded layers
bit for bit:

* :meth:`rows` / :meth:`embedding_rows` — the sampled-training gather;
  indices are routed to their shards, each shard block is gathered with
  the row-sparse ``embedding_rows`` op (so backward emits one
  :class:`~repro.tensor.RowSparseGrad` *per shard*, in shard-local
  coordinates), and the pieces are permuted back into batch order.
* :meth:`forward` / :meth:`all` — the dense full-graph path; ``all()``
  reassembles the logical table (exact row copies, dense gradients flow
  back as per-shard blocks), matching the unsharded dense-Adam semantics.

Because each shard is its own ``Parameter``, every optimizer state slot —
the Adam moments *and the lazy per-row step counters* — is naturally
shard-local: state never crosses shards, which is what lets
:mod:`repro.shard.reshard` move rows and their state between layouts
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_schemes
from repro.nn.module import Module, Parameter
from repro.shard.spec import ShardSpec
from repro.tensor import Tensor
from repro.tensor.tensor import concat


class ShardedEmbedding(Module):
    """One logical embedding table stored as K shard-local parameters.

    Parameters
    ----------
    weight:
        The full ``(num_rows, *row_shape)`` table to shard. Construction
        slices this exact array row-by-row, so a sharded table initialized
        from the same array as an unsharded one holds bit-identical values
        (the anchor of the ``shards=1`` parity contract). 1-D tables
        (bias vectors) shard the same way with an empty ``row_shape``.
    spec:
        Row partitioning; a :class:`~repro.shard.ShardSpec` or ``None``
        to build one from ``num_shards``/``strategy``.
    num_shards, strategy:
        Convenience spec construction when ``spec`` is ``None``.
    name:
        Base parameter name; shard ``k`` is named ``{name}[shard{k}]``.
    """

    def __init__(self, weight: np.ndarray, spec: ShardSpec | None = None, *,
                 num_shards: int = 1, strategy: str = "range",
                 name: str = "sharded"):
        super().__init__()
        weight = np.asarray(weight)
        if weight.ndim < 1:
            raise ValueError("weight must have at least one (row) dimension")
        if spec is None:
            spec = ShardSpec(weight.shape[0], num_shards, strategy)
        elif spec.num_rows != weight.shape[0]:
            raise ValueError(f"spec covers {spec.num_rows} rows but weight "
                             f"has {weight.shape[0]}")
        self.spec = spec
        self.table_name = name
        self.shards: list[Parameter] = [
            Parameter(weight[spec.shard_rows(k)], name=f"{name}[shard{k}]")
            for k in range(spec.num_shards)]
        # hash layout needs a permutation to reassemble concat → global order;
        # range layout concatenates in global order already (identity map)
        if spec.strategy == "range" or spec.num_shards == 1:
            self._concat_order = None
        else:
            order = np.empty(spec.num_rows, dtype=np.int64)
            offset = 0
            for k in range(spec.num_shards):
                rows = spec.shard_rows(k)
                order[rows] = offset + np.arange(rows.size)
                offset += rows.size
            self._concat_order = order

    # ------------------------------------------------------------------
    @classmethod
    def init(cls, num_embeddings: int, row_shape: int | tuple[int, ...],
             rng: np.random.Generator | None = None, *,
             init: str = "xavier_normal", num_shards: int = 1,
             strategy: str = "range", name: str = "embedding",
             ) -> "ShardedEmbedding":
        """Mirror ``nn.Embedding``'s initialization, then shard the table.

        The full table is drawn first with the same scheme and rng stream
        as the unsharded layer would use, then split — so ``num_shards=1``
        and ``nn.Embedding`` start from bit-identical weights.
        """
        rng = rng or np.random.default_rng()
        if isinstance(row_shape, int):
            row_shape = (row_shape,)
        scheme = getattr(init_schemes, init)
        weight = scheme((num_embeddings,) + tuple(row_shape), rng)
        return cls(weight, num_shards=num_shards, strategy=strategy, name=name)

    # ------------------------------------------------------------------
    @property
    def num_embeddings(self) -> int:
        return self.spec.num_rows

    @property
    def row_shape(self) -> tuple[int, ...]:
        return self.shards[0].data.shape[1:]

    @property
    def embedding_dim(self) -> int | None:
        """Row width for 2-D tables; ``None`` for 1-D bias tables."""
        return self.row_shape[0] if self.row_shape else None

    @property
    def num_shards(self) -> int:
        return self.spec.num_shards

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedEmbedding({self.num_embeddings} rows x "
                f"{self.row_shape}, shards={self.num_shards}, "
                f"strategy={self.spec.strategy!r})")

    # ------------------------------------------------------------------
    # row-sparse (sampled training) path
    # ------------------------------------------------------------------
    def rows(self, indices) -> Tensor:
        """Row gather whose backward emits one ``RowSparseGrad`` per shard.

        Same forward values as the unsharded ``embedding_rows`` gather —
        indices are split by owning shard, each shard-local block is
        gathered row-sparsely, and the per-shard pieces are permuted back
        to batch order (an exact, per-row-unique scatter: no float
        reordering anywhere).
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("rows expects 1-D row indices "
                             f"(got shape {indices.shape})")
        if self.num_shards == 1:
            return self.shards[0].embedding_rows(indices)
        routed = self.spec.split(indices)
        if not routed:  # empty batch
            return self.shards[0].embedding_rows(indices)
        if len(routed) == 1:
            _, local, _ = routed[0]
            piece = self.shards[routed[0][0]].embedding_rows(local)
            return piece
        pieces = [self.shards[k].embedding_rows(local)
                  for k, local, _ in routed]
        positions = np.concatenate([pos for _, _, pos in routed])
        unpermute = np.empty(indices.size, dtype=np.int64)
        unpermute[positions] = np.arange(indices.size)
        return concat(pieces, axis=0).gather_rows(unpermute)

    #: alias so ``(table, rows)`` pairs work in ``l2_regularization_batch``
    #: exactly like a raw ``Parameter`` table
    embedding_rows = rows

    # ------------------------------------------------------------------
    # dense (full-graph) path
    # ------------------------------------------------------------------
    def all(self) -> Tensor:
        """The full logical table as one tensor (dense gradients).

        With one shard this *is* the shard parameter — the same autograd
        node the unsharded path trains, hence bit-parity for free. With K
        shards the blocks are concatenated (and, for hash layout, permuted
        back to global row order); backward splits the dense gradient into
        exact per-shard blocks.

        Assembly is deliberately NOT cached: the optimizer mutates shard
        data in place between calls, and a stale autograd node would be a
        silent correctness bug. Inference paths that call this repeatedly
        should memoize at their own level, where invalidation is visible
        (the graph models already do, via the engine's version-keyed
        cache).
        """
        if self.num_shards == 1:
            return self.shards[0]
        stacked = concat(list(self.shards), axis=0)
        if self._concat_order is None:
            return stacked
        return stacked.gather_rows(self._concat_order)

    def forward(self, indices) -> Tensor:
        """Dense-path lookup (``layer(indices)``), any index shape."""
        indices = np.asarray(indices, dtype=np.int64)
        return self.all().gather_rows(indices)

    # ------------------------------------------------------------------
    # numpy views (serving / inspection)
    # ------------------------------------------------------------------
    def shard_arrays(self) -> list[np.ndarray]:
        """Per-shard weight blocks (the arrays a shard server would own)."""
        return [p.data for p in self.shards]

    def dense_table(self) -> np.ndarray:
        """The assembled logical table as a plain array (copy)."""
        return self.spec.assemble(self.shard_arrays())


def shard_layout(module: Module) -> dict:
    """``{"shards": K, "shard_strategy": s}`` of a model's sharded tables.

    Read from the first :class:`ShardedEmbedding` in the module tree (a
    model shards all its tables alike); ``{}`` for an unsharded model.
    What checkpoints and training states record, so the files say which
    layout their ``<base>.shards.<k>`` arrays are stored under.
    """
    for sub in module.modules():
        if isinstance(sub, ShardedEmbedding):
            return {"shards": sub.spec.num_shards,
                    "shard_strategy": sub.spec.strategy}
    return {}


def table_tensor(table) -> Tensor:
    """Full-table tensor for the dense/full-graph path.

    Accepts the three table kinds the models use interchangeably: a raw
    :class:`~repro.nn.module.Parameter` (returned as-is), an
    ``nn.Embedding`` (its weight), or a :class:`ShardedEmbedding` (the
    assembled table).
    """
    if isinstance(table, Tensor):
        return table
    return table.all()


def table_rows(table, indices) -> Tensor:
    """Row-sparse gather for the sampled path, any table kind."""
    if isinstance(table, Tensor):
        return table.embedding_rows(np.asarray(indices, dtype=np.int64))
    return table.rows(np.asarray(indices, dtype=np.int64))


def table_parameters(table) -> list[Parameter]:
    """The trainable parameters behind a table (1 dense or K shard blocks)."""
    if isinstance(table, Tensor):
        return [table]
    return table.parameters()


def table_array(table) -> np.ndarray:
    """Inference-time numpy view of a table's full contents."""
    if isinstance(table, Tensor):
        return table.data
    if isinstance(table, ShardedEmbedding):
        return table.dense_table()
    return table.weight.data

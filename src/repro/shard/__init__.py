"""Sharded embedding tables (parameter-server-style row partitioning).

The user/item embedding tables are the only model state that grows with
the catalog; everything else (propagation layers, MLP heads) is a few KB.
Once the tables outgrow one worker's memory, the standard industrial move
is to partition them row-wise across K shard servers and ship row-sparse
gradients — exactly the ``(rows, value block)`` wire format
:class:`~repro.tensor.RowSparseGrad` already carries. This package is
that partitioning, kept bit-compatible with the unsharded path; every
shard is held and stepped by the one training process (``docs/training.md``
records what the multi-process owners measured before they were removed):

* :class:`ShardSpec` — row-range or hashed partitioning arithmetic;
* :class:`ShardedEmbedding` — one logical table as K shard-local
  parameters with the same ``rows()`` / forward surface as
  ``nn.Embedding`` (and raw ``Parameter`` tables);
* :mod:`repro.shard.reshard` — exact K→K' migration of checkpoints and
  training states (rows and their optimizer state move bit-for-bit).

The contract, enforced by ``tests/shard/``: ``shards=1`` bit-matches the
unsharded float64 goldens; ``shards=K`` matches ``shards=1`` bit-exactly
under SGD and within documented tolerance under Adam (in practice the
per-row lazy updates make Adam bit-exact too — the tolerance is the
contract, the exactness an implementation detail).
"""

from repro.shard.spec import ShardSpec, STRATEGIES
from repro.shard.embedding import (
    ShardedEmbedding,
    shard_layout,
    table_array,
    table_parameters,
    table_rows,
    table_tensor,
)
from repro.shard.reshard import ReshardError, reshard_file, reshard_state

__all__ = [
    "ShardSpec",
    "STRATEGIES",
    "ShardedEmbedding",
    "ReshardError",
    "reshard_file",
    "reshard_state",
    "shard_layout",
    "table_array",
    "table_parameters",
    "table_rows",
    "table_tensor",
]

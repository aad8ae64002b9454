"""Full-graph inference runs each layer in row chunks, bit-equal to one pass.

With grad off, :class:`~repro.core.layers.GNMRPropagationLayer` applies
η → ξ → ψ to ``CHUNK_BYTES``-sized row blocks of the message stack. Every
step is row-wise and no chunk is a single row (a one-row product is a
GEMV, which rounds differently), so the tables equal an unchunked pass bit
for bit — and the transient stays a few budgets instead of ``(N·K, C·d)``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig, layers
from repro.data import taobao_like

#: node rows per chunk the forced split aims at: 40 users leave a 1-row
#: remainder (40 = 13·3 + 1) that must fold into the chunk before it
ROWS = 3

VARIANTS = {
    "defaults": {},
    "GNMR-be": {"use_behavior_embedding": False},
    "GNMR-ma": {"use_message_attention": False},
    "uniform-psi": {"use_gated_aggregation": False},
    "sum-aggregator": {"aggregator": "sum"},
    "no-self-connection": {"self_connection": False},
}

#: datasets of K = 1 and K = 3 behaviors beside the fixture's four
SUBSETS = {
    "only-target": lambda data: data.only_target(),
    "three-behaviors": lambda data: data.drop_behaviors(["favorite"]),
}


def _tables(dataset, dtype, overrides):
    model = GNMR(dataset, GNMRConfig(pretrain=False, seed=5, num_layers=2,
                                     dtype=dtype, **overrides))
    d = model.config.embedding_dim
    return model, [table[:, start:start + d]
                   for table in model.serving_embeddings()
                   for start in range(0, table.shape[1], d)]


def _chunked_tables(dataset, dtype, overrides, monkeypatch):
    """The same tables under a budget of ``ROWS`` node rows; also the row
    count of every block a layer fused."""
    config = GNMRConfig(**overrides)
    k = len(config.graph_behaviors or dataset.behavior_names)
    budget = (ROWS * k * config.memory_dims * config.embedding_dim
              * np.dtype(dtype).itemsize)
    monkeypatch.setattr(layers, "CHUNK_BYTES", budget)
    blocks: list[int] = []
    fuse = layers.GNMRPropagationLayer._fuse

    def spy(self, stacked):
        blocks.append(stacked.shape[0])
        return fuse(self, stacked)

    monkeypatch.setattr(layers.GNMRPropagationLayer, "_fuse", spy)
    _, tables = _tables(dataset, dtype, overrides)
    monkeypatch.undo()
    return tables, blocks


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", [*VARIANTS, *SUBSETS])
def test_forced_split_is_bit_equal_to_one_pass(frozen_taobao, dtype, variant,
                                               monkeypatch):
    dataset = SUBSETS.get(variant, lambda data: data)(frozen_taobao)
    overrides = VARIANTS.get(variant, {})
    model, whole = _tables(dataset, dtype, overrides)
    chunked, blocks = _chunked_tables(dataset, dtype, overrides, monkeypatch)

    sides = (dataset.num_users, dataset.num_items) * model.config.num_layers
    assert len(blocks) > 4 * len(sides)       # many chunks a layer
    assert min(blocks) >= 2                   # the 1-row remainder folded
    assert sum(blocks) == sum(sides)          # every row exactly once
    assert len(chunked) == len(whole)
    for got, want in zip(chunked, whole):
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, want)


def test_training_forward_is_one_block(frozen_taobao, monkeypatch):
    """Grad on: one block whatever the budget, so backward sees one graph."""
    monkeypatch.setattr(layers, "CHUNK_BYTES", 1)
    model = GNMR(frozen_taobao, GNMRConfig(pretrain=False, seed=5))
    users = np.arange(4)
    pos, neg = model.batch_scores(users, users, users + 1)
    assert pos.requires_grad and neg.requires_grad


def test_serving_embeddings_transient_is_bounded_by_the_budget():
    """40 000 items, float64: one pass would hold η's ``(N·K, C·d)``
    projection and its gated product at once (≈ 390 MB traced before the
    chunking). Chunked, the peak is one side's ``(N, K, d)`` message stack,
    the ``(N, (L+1)·d)`` serving table and a few chunk budgets: 34.7 MB
    against a 50.2 MB bound (2026-10-17)."""
    data = taobao_like(500, 40_000, seed=0)
    model = GNMR(data, GNMRConfig(pretrain=False, seed=0, num_layers=2))
    n, k, d = data.num_items, len(model.behavior_names), model.config.embedding_dim
    itemsize = np.dtype(model.engine.dtype).itemsize
    bound = (n * k * d + n * (model.config.num_layers + 1) * d) * itemsize \
        + 4 * layers.CHUNK_BYTES
    tracemalloc.start()
    try:
        user_table, item_table = model.serving_embeddings()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert item_table.shape == (n, 3 * d)
    assert peak < bound, f"peak {peak / 2**20:.1f} MB, bound {bound / 2**20:.1f} MB"

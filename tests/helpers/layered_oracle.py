"""The block builder ``graph/layered.py`` had before the stacked gather.

Moved here verbatim when ``repro.graph.layered`` stopped building a hop as
K scipy slices (``matrix[rows][:, cols]``, ``sp.diags(inv) @ block``,
``sp.vstack``) ranked by one ``np.lexsort`` per behaviour. The new builder
promises the *same bits* — level sets, the CSR arrays of every hop and of
its transpose, the rng stream consumed — and this is the reference that
promise is tested against (``tests/graph/test_layered.py``). Test-only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.layered import (
    LayeredBlock,
    LayeredNodeBlocks,
    _BipartiteHop,
    resolve_fanout,
)
from repro.tensor.sparse import SparseAdjacency


def sample_neighbors(matrix: sp.csr_matrix, nodes: np.ndarray,
                     fanout: int | None,
                     rng: np.random.Generator) -> np.ndarray:
    """Up-to-``fanout`` neighbors of each node from one CSR adjacency.

    Returns the (non-unique) concatenation of the sampled neighbor ids;
    ``fanout=None`` keeps every neighbor. Sampling is per node — a hub's
    neighborhood is capped, a sparse node keeps everything it has — and
    fully vectorized: every candidate edge gets a random key and a stable
    ``lexsort`` ranks edges within their row, so selecting ``rank < fanout``
    draws without replacement across all rows in one pass (no per-node
    Python loop on the training hot path).
    """
    if fanout is not None and fanout < 1:
        raise ValueError("fanout must be >= 1 (or None for no cap)")
    indptr, indices = matrix.indptr, matrix.indices
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    # global CSR position of each candidate edge, frontier-row by row
    pos = np.repeat(starts - offsets[:-1], lengths) + np.arange(total)
    candidates = indices[pos]
    if fanout is None or int(lengths.max()) <= fanout:
        return candidates
    row_of_edge = np.repeat(np.arange(nodes.size), lengths)
    keys = rng.random(total)
    order = np.lexsort((keys, row_of_edge))  # stable: rows stay contiguous
    rank = np.arange(total) - np.repeat(offsets[:-1], lengths)
    return candidates[order][rank < fanout]


def _expand(matrices: list[sp.csr_matrix], frontier: np.ndarray,
            fanout: int | None, rng: np.random.Generator) -> np.ndarray:
    """Unique sampled neighbors of a frontier across K adjacencies."""
    if frontier.size == 0:
        return np.empty(0, dtype=np.int64)
    gathered = [sample_neighbors(m, frontier, fanout, rng) for m in matrices]
    merged = np.concatenate(gathered) if gathered else np.empty(0, dtype=np.int64)
    return np.unique(merged.astype(np.int64, copy=False))


def _renormalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Rescale each row to sum 1 (mean over the sampled neighborhood)."""
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return (sp.diags(inv.astype(matrix.dtype)) @ matrix).tocsr()


def _slice_block(matrix: sp.csr_matrix, rows: np.ndarray,
                 cols: np.ndarray, renormalize: bool) -> sp.csr_matrix:
    """Induced sub-adjacency ``matrix[rows][:, cols]`` as CSR."""
    block = matrix[rows][:, cols].tocsr()
    if renormalize:
        block = _renormalize_rows(block)
    return block


def _fused_slice(matrices: list[sp.csr_matrix], rows: np.ndarray,
                 cols: np.ndarray, renormalize: bool, dtype) -> SparseAdjacency:
    """Vstack the K per-behavior induced slices into one stacked CSR."""
    blocks = [_slice_block(m, rows, cols, renormalize) for m in matrices]
    return SparseAdjacency(sp.vstack(blocks, format="csr"), dtype=dtype,
                           precompute_transpose=True)


def sample_layered_bipartite(user_matrices: list[sp.csr_matrix],
                             item_matrices: list[sp.csr_matrix],
                             seed_users: np.ndarray, seed_items: np.ndarray,
                             hops: int, fanout,
                             rng: np.random.Generator,
                             dtype,
                             renormalize: bool) -> LayeredBlock:
    """Build a :class:`LayeredBlock` by backward expansion from the seeds.

    ``fanout`` follows :func:`resolve_fanout` semantics: ``schedule[0]``
    caps the first expansion away from the seeds (i.e. the neighbors
    aggregated by the *last* layer).
    """
    schedule = resolve_fanout(fanout, hops)
    users = [np.unique(np.asarray(seed_users, dtype=np.int64))]
    items = [np.unique(np.asarray(seed_items, dtype=np.int64))]
    for hop_fanout in schedule:
        # the level-l computation pulls from sampled neighbors of level l's
        # node sets; union with the current sets keeps levels nested so
        # residual connections can restrict instead of re-gather
        next_items = _expand(user_matrices, users[-1], hop_fanout, rng)
        next_users = _expand(item_matrices, items[-1], hop_fanout, rng)
        users.append(np.union1d(users[-1], next_users))
        items.append(np.union1d(items[-1], next_items))
    # built seed-first; level 0 must be the widest set
    users.reverse()
    items.reverse()
    k = len(user_matrices)
    user_hops = [
        _BipartiteHop(_fused_slice(user_matrices, users[level + 1],
                                   items[level], renormalize, dtype),
                      num_dst=users[level + 1].size, num_behaviors=k)
        for level in range(hops)
    ]
    item_hops = [
        _BipartiteHop(_fused_slice(item_matrices, items[level + 1],
                                   users[level], renormalize, dtype),
                      num_dst=items[level + 1].size, num_behaviors=k)
        for level in range(hops)
    ]
    return LayeredBlock(users, items, user_hops, item_hops, num_behaviors=k)


def sample_layered_square(matrix: sp.csr_matrix, seed_nodes: np.ndarray,
                          hops: int, fanout,
                          rng: np.random.Generator,
                          dtype) -> LayeredNodeBlocks:
    """Build :class:`LayeredNodeBlocks` over one square adjacency.

    ``seed_nodes`` live in the joint (users+items) index space; ``fanout``
    accepts the same scalar-or-schedule forms as
    :func:`sample_layered_bipartite`.
    """
    schedule = resolve_fanout(fanout, hops)
    levels = [np.unique(np.asarray(seed_nodes, dtype=np.int64))]
    for hop_fanout in schedule:
        neighbors = _expand([matrix], levels[-1], hop_fanout, rng)
        levels.append(np.union1d(levels[-1], neighbors))
    levels.reverse()
    slices = [
        SparseAdjacency(_slice_block(matrix, levels[level + 1], levels[level],
                                     renormalize=False),
                        dtype=dtype, precompute_transpose=True)
        for level in range(hops)
    ]
    return LayeredNodeBlocks(levels, slices)

"""Layered (per-hop) sampled blocks — the mini-batch block format.

GNMR's Algorithm 1 trains on mini-batches of seed users, yet full-graph
propagation pays ``A @ H`` over every node each step. This module holds the
GraphSAGE/DGL-"MFG"-style alternative applied to our stacked-CSR substrate:
fanout-capped L-hop neighbor sampling around the batch seeds, extracted as
a *layered* block with one shrinking bipartite sub-adjacency per hop, so
layer ``l`` computes exactly the rows layer ``l+1`` needs and the top
layer computes seeds only. Per-step propagation cost then scales with
``batch × fanout^L`` instead of the graph size.

Construction walks backwards from the seeds: with level sets
``S_L = seeds`` and ``S_{l-1} = S_l ∪ sampled-neighbors(S_l)``, the level-
``l`` computation aggregates ``S_l``-rows from ``S_{l-1}``-columns through
the induced bipartite slice ``A[S_l][:, S_{l-1}]``. Induced slicing keeps
every graph edge between the included node sets. Row-normalized ("mean")
adjacencies are re-normalized over the included columns, so each message
is the mean of the neighbors actually included — the unbiased-as-fanout-
grows estimator; other normalizations keep their original edge values (a
subset sum; NGCF's self-loops keep the identity component intact). With
``fanout=None`` the level sets cover every reachable neighbor, each
re-normalized row equals the full-graph row, and the seed outputs are
*bit-exact* full-graph values — the property the layered tests pin down.

Both steps read the engine's fused ``(K·n) × m`` stacks as they are:
expansion samples each behavior's row range, a hop is one gather over the
K row ranges (:func:`_hop_slice`), and the blocks are bit for bit those of
the per-behavior scipy slicing this replaced, rng stream included.

Per-hop fanout schedules compose naturally: ``fanout=[10, 5]`` caps the
first expansion away from the seeds at 10 neighbors per (node, behavior)
and the second at 5, bounding the deepest (cheapest-per-row, but largest)
level set.

Two shapes mirror the two :class:`~repro.graph.engine.PropagationEngine`
modes:

* :class:`LayeredBlock` — multi-behavior (GNMR): per-level user-side and
  item-side stacked-CSR bipartite slices with the engine's fused
  ``(K·n) × m`` layout.
* :class:`LayeredNodeBlocks` — single-graph (NGCF): per-level rectangular
  slices of one square adjacency over the joint (users+items) space.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.sparse import SparseAdjacency
from repro.tensor.tensor import Tensor


def _check_fanout_entry(value, position: str) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"fanout {position} must be an int or None, "
                         f"got {value!r}")
    if value < 1:
        raise ValueError(f"fanout {position} must be >= 1 (or None for no "
                         f"cap), got {value}")


def validate_fanout(fanout) -> None:
    """Validate a fanout spec without knowing the hop count.

    Accepts a scalar (``int`` ≥ 1), ``None`` (no cap), or a sequence of
    those (a per-hop schedule). Raises ``ValueError`` for anything else —
    including an empty schedule, which would silently sample nothing.
    """
    if isinstance(fanout, (list, tuple)):
        if len(fanout) == 0:
            raise ValueError("fanout schedule must not be empty")
        for i, entry in enumerate(fanout):
            _check_fanout_entry(entry, f"schedule entry {i}")
        return
    _check_fanout_entry(fanout, "value")


def resolve_fanout(fanout, hops: int) -> list[int | None]:
    """Normalize a fanout spec into a per-hop schedule of length ``hops``.

    A scalar (or ``None``) broadcasts to every hop; a sequence must match
    ``hops`` exactly — a silent truncation or cycle would make ``fanout=[10,
    5]`` mean different things at different model depths.

    >>> resolve_fanout(10, 2)
    [10, 10]
    >>> resolve_fanout(None, 3)
    [None, None, None]
    >>> resolve_fanout([10, 5], 2)
    [10, 5]
    >>> resolve_fanout([10, 5], 3)
    Traceback (most recent call last):
        ...
    ValueError: fanout schedule has 2 entries but the expansion runs 3 hops
    """
    validate_fanout(fanout)
    if isinstance(fanout, (list, tuple)):
        if len(fanout) != hops:
            raise ValueError(f"fanout schedule has {len(fanout)} entries but "
                             f"the expansion runs {hops} hops")
        return [None if f is None else int(f) for f in fanout]
    return [fanout] * hops


def parse_fanout(text: str) -> int | None | tuple[int | None, ...]:
    """Parse the CLI ``--fanout`` string into a fanout spec.

    ``"10"`` → 10, ``"0"`` → None (no cap), ``"10,5"`` → ``(10, 5)`` with
    per-hop semantics (``0`` entries mean "no cap on that hop").

    >>> parse_fanout("10"), parse_fanout("0"), parse_fanout("10,5")
    (10, None, (10, 5))
    >>> parse_fanout("10,0,5")
    (10, None, 5)
    """
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"invalid --fanout value {text!r}: empty entry")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"invalid --fanout value {text!r}: entries must be "
                         "integers") from None
    if any(v < 0 for v in values):
        raise ValueError(f"invalid --fanout value {text!r}: entries must be "
                         ">= 0 (0 means no cap)")
    resolved = [None if v == 0 else v for v in values]
    if len(resolved) == 1:
        return resolved[0]
    return tuple(resolved)


def _bounds(lengths: np.ndarray) -> np.ndarray:
    """``[0, cumsum(lengths)]``, in ``lengths``' own integer type."""
    bounds = np.zeros(lengths.size + 1, dtype=lengths.dtype)
    np.cumsum(lengths, dtype=lengths.dtype, out=bounds[1:])
    return bounds


def _row_positions(indptr: np.ndarray, rows: np.ndarray):
    """``(pos, lengths, bounds)``: ``pos[bounds[i]:bounds[i + 1]]`` are the
    CSR positions of ``rows[i]``'s ``lengths[i]`` entries.

    All three keep ``indptr``'s integer type: edge-length temporaries are
    what the extraction thread's malloc arena grows by and never returns.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1]
    lengths -= starts
    bounds = _bounds(lengths)
    starts -= bounds[:-1]
    pos = np.repeat(starts, lengths)
    pos += np.arange(bounds[-1], dtype=pos.dtype)
    return pos, lengths, bounds


def _segment_sums(values: np.ndarray, bounds: np.ndarray, dtype) -> np.ndarray:
    """``values[bounds[i]:bounds[i + 1]].sum()`` per segment, empty ones 0.

    ``reduceat`` over the non-empty segments is how scipy sums CSR rows, so
    a float32 row sum here has the bits of ``csr.sum(axis=1)``.
    """
    sums = np.zeros(bounds.size - 1, dtype=dtype)
    filled = np.flatnonzero(bounds[1:] != bounds[:-1])
    sums[filled] = np.add.reduceat(values, bounds[filled], dtype=dtype)
    return sums


def _keyed_order(rng: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
    """One random key per edge; edges ordered by row, then by key.

    Always the stable ``lexsort`` permutation of (key, row), which cost 65
    of a block's 100 ms. With no two keys equal, two passes give the same
    order: an unstable sort of the keys, then a stable sort of the row ids
    as ``uint16`` (numpy's radix path). Equal keys, or a frontier too wide
    for ``uint16`` row ids, fall back to ``lexsort`` itself.
    """
    keys = rng.random(int(lengths.sum()))
    if lengths.size <= np.iinfo(np.uint16).max:
        by_key = np.argsort(keys)
        ranked = keys[by_key]
        if not np.any(ranked[1:] == ranked[:-1]):
            del keys, ranked  # 16 bytes an edge, dead before the second sort
            row_of_edge = np.repeat(
                np.arange(lengths.size, dtype=np.uint16), lengths)[by_key]
            return by_key[np.argsort(row_of_edge, kind="stable")]
    row_of_edge = np.repeat(np.arange(lengths.size), lengths)
    return np.lexsort((keys, row_of_edge))  # exact-fallback


def sample_neighbors(matrix: sp.csr_matrix, nodes: np.ndarray,
                     fanout: int | None,
                     rng: np.random.Generator) -> np.ndarray:
    """Up-to-``fanout`` neighbors of each node from one CSR adjacency.

    Returns the (non-unique) concatenation of the sampled neighbor ids;
    ``fanout=None`` keeps every neighbor. Sampling is per node — a hub's
    neighborhood is capped, a sparse node keeps everything it has — and
    fully vectorized: every candidate edge gets a random key, edges are
    ordered by key within their row (:func:`_keyed_order`), and selecting
    ``rank < fanout`` draws without replacement across all rows in one
    pass (no per-node Python loop on the training hot path). Keys are
    drawn only when some row exceeds the cap.
    """
    if fanout is not None and fanout < 1:
        raise ValueError("fanout must be >= 1 (or None for no cap)")
    pos, lengths, _ = _row_positions(matrix.indptr, nodes)
    candidates = matrix.indices[pos]
    if fanout is None or pos.size == 0 or int(lengths.max()) <= fanout:
        return candidates
    pos -= np.repeat(matrix.indptr[nodes], lengths)  # now: rank within the row
    return candidates[_keyed_order(rng, lengths)[pos < fanout]]


def _expand(stack: sp.csr_matrix, num_behaviors: int, frontier: np.ndarray,
            fanout: int | None, rng: np.random.Generator) -> np.ndarray:
    """Unique sampled neighbors of a frontier across a ``(K·n) × m`` stack.

    Behavior ``k`` is rows ``[k·n, (k+1)·n)``; keys are drawn per behavior,
    in behavior order.
    """
    n = stack.shape[0] // num_behaviors
    reached = np.zeros(stack.shape[1], dtype=bool)
    for k in range(num_behaviors):
        reached[sample_neighbors(stack, frontier + k * n, fanout, rng)] = True
    return np.flatnonzero(reached)


def _hop_slice(stack: sp.csr_matrix, num_behaviors: int, rows: np.ndarray,
               cols: np.ndarray, renormalize: bool, dtype) -> SparseAdjacency:
    """Induced ``(K·|rows|) × |cols|`` slice of a ``(K·n) × m`` stacked CSR.

    One gather over the stack's arrays: the K row ranges of ``rows``, the
    columns filtered and relabelled through a ``global → local`` scratch
    (−1 = absent), and with ``renormalize`` each row rescaled to sum 1 (the
    mean over the sampled neighborhood). The result is, bit for bit, the
    per-behavior scipy row slice → column slice → ``diags(1 / sums) @`` →
    ``vstack`` it replaced (the oracle in ``tests/helpers``). That product
    left each renormalized row in *reversed* column order, which the
    forward SpMM accumulates in: so such rows are gathered last row first,
    summed front to back, and one flip of the whole arrays puts the rows
    in order and each row's entries in reverse.
    """
    n = stack.shape[0] // num_behaviors
    stacked_rows = (np.arange(num_behaviors)[:, None] * n + rows).ravel()
    if renormalize:
        stacked_rows = stacked_rows[::-1]
    pos, _, bounds = _row_positions(stack.indptr, stacked_rows)
    local = np.full(stack.shape[1], -1, dtype=stack.indices.dtype)
    local[cols] = np.arange(cols.size, dtype=local.dtype)
    indices = local[stack.indices[pos]]
    keep = indices >= 0
    lengths = _segment_sums(keep, bounds, dtype=bounds.dtype)
    indices = indices[keep]
    data = stack.data[pos[keep]]
    del pos, keep
    if renormalize:
        sums = _segment_sums(data, _bounds(lengths), dtype=data.dtype)
        inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
        data *= np.repeat(inv, lengths)
        data, indices, lengths = (np.ascontiguousarray(flipped[::-1])
                                  for flipped in (data, indices, lengths))
    block = sp.csr_matrix((data, indices, _bounds(lengths)),
                          shape=(stacked_rows.size, cols.size))
    return SparseAdjacency(block, dtype=dtype, precompute_transpose=True)


class _IndexMap:
    """Old→new index lookup over a sorted unique node array."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: np.ndarray):
        self.nodes = nodes  # sorted unique int64

    def localize(self, ids: np.ndarray, kind: str) -> np.ndarray:
        """Map global ids to positions in the block (raises if absent)."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.nodes, ids)
        # compare only in-range positions: an empty level has no row to
        # clamp an out-of-range position onto
        ok = pos < self.nodes.size
        ok[ok] = self.nodes[pos[ok]] == ids[ok]
        if not np.all(ok):
            missing = np.unique(ids[~ok])[:5]
            raise KeyError(f"{kind} ids not in block: {missing.tolist()}")
        return pos


class _BipartiteHop:
    """One hop's fused bipartite slice: ``(K·|dst|) × |src|`` stacked CSR."""

    __slots__ = ("stack", "num_dst", "num_behaviors")

    def __init__(self, stack: SparseAdjacency, num_dst: int, num_behaviors: int):
        self.stack = stack
        self.num_dst = int(num_dst)
        self.num_behaviors = int(num_behaviors)

    def propagate(self, h_src: Tensor) -> Tensor:
        """Aggregate source embeddings to destinations: ``(|dst|, K, d)``."""
        out = self.stack.matmul(h_src)                       # (K·dst, d)
        return out.reshape(self.num_behaviors, self.num_dst,
                           h_src.shape[-1]).transpose(1, 0, 2)


class LayeredBlock:
    """Per-hop shrinking bipartite blocks for multi-behavior propagation.

    ``user_levels[l]`` / ``item_levels[l]`` are the sorted global ids whose
    embeddings exist *after* ``l`` layer applications — ``user_levels[0]``
    is the widest (order-0 input) set, ``user_levels[L]`` the seed users.
    ``user_hops[l]`` aggregates item level-``l`` embeddings into user
    level-``l+1`` rows (and ``item_hops[l]`` the mirror image), so a model
    runs layer ``l+1`` as ``layer(user_hops[l].propagate(h_item))`` and
    each level's tensors shrink toward the seeds.
    """

    def __init__(self, user_levels: list[np.ndarray],
                 item_levels: list[np.ndarray],
                 user_hops: list[_BipartiteHop],
                 item_hops: list[_BipartiteHop],
                 num_behaviors: int):
        self._user_maps = [_IndexMap(nodes) for nodes in user_levels]
        self._item_maps = [_IndexMap(nodes) for nodes in item_levels]
        self.user_hops = user_hops
        self.item_hops = item_hops
        self.num_behaviors = int(num_behaviors)

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.user_hops)

    @property
    def user_levels(self) -> list[np.ndarray]:
        """Global user ids per level (position = local row index)."""
        return [m.nodes for m in self._user_maps]

    @property
    def item_levels(self) -> list[np.ndarray]:
        return [m.nodes for m in self._item_maps]

    def localize_users(self, level: int, ids: np.ndarray) -> np.ndarray:
        """Rows of level-``level`` user tensors holding these global ids."""
        return self._user_maps[level].localize(ids, "user")

    def localize_items(self, level: int, ids: np.ndarray) -> np.ndarray:
        return self._item_maps[level].localize(ids, "item")

    def restrict_users(self, level: int) -> np.ndarray:
        """Rows of level ``level-1`` user tensors kept at level ``level``.

        Level sets are nested (``S_l ⊆ S_{l-1}``), so a model's residual /
        self-connection term restricts the previous level's tensor to these
        rows before adding it to the propagated one.
        """
        return self._user_maps[level - 1].localize(
            self._user_maps[level].nodes, "user")

    def restrict_items(self, level: int) -> np.ndarray:
        return self._item_maps[level - 1].localize(
            self._item_maps[level].nodes, "item")


class LayeredNodeBlocks:
    """Per-hop shrinking slices of one square adjacency (NGCF mode).

    ``levels[l]`` is the sorted joint-space node set after ``l`` layers
    (``levels[L]`` = seeds); ``hops[l]`` is the ``|levels[l+1]| ×
    |levels[l]|`` induced slice, self-loops included because the level
    sets are nested.
    """

    def __init__(self, levels: list[np.ndarray],
                 hops: list[SparseAdjacency]):
        self._maps = [_IndexMap(nodes) for nodes in levels]
        self.hops = hops

    @property
    def num_layers(self) -> int:
        return len(self.hops)

    @property
    def levels(self) -> list[np.ndarray]:
        return [m.nodes for m in self._maps]

    def localize(self, level: int, ids: np.ndarray) -> np.ndarray:
        return self._maps[level].localize(ids, "node")

    def restrict(self, level: int) -> np.ndarray:
        """Rows of level ``level-1`` tensors kept at level ``level``."""
        return self._maps[level - 1].localize(self._maps[level].nodes, "node")

    def propagate(self, level: int, h: Tensor) -> Tensor:
        """One hop: aggregate level-``level`` rows into level ``level+1``."""
        return self.hops[level].matmul(h)


def sample_layered_bipartite(user_stack: sp.csr_matrix,
                             item_stack: sp.csr_matrix, num_behaviors: int,
                             seed_users: np.ndarray, seed_items: np.ndarray,
                             hops: int, fanout,
                             rng: np.random.Generator,
                             dtype,
                             renormalize: bool) -> LayeredBlock:
    """Build a :class:`LayeredBlock` by backward expansion from the seeds.

    ``user_stack`` / ``item_stack`` are the engine's fused ``(K·users) ×
    items`` / ``(K·items) × users`` CSR stacks. ``fanout`` follows
    :func:`resolve_fanout` semantics: ``schedule[0]`` caps the first
    expansion away from the seeds (i.e. the neighbors aggregated by the
    *last* layer).
    """
    schedule = resolve_fanout(fanout, hops)
    k = num_behaviors
    users = [np.unique(np.asarray(seed_users, dtype=np.int64))]
    items = [np.unique(np.asarray(seed_items, dtype=np.int64))]
    for hop_fanout in schedule:
        # the level-l computation pulls from sampled neighbors of level l's
        # node sets; union with the current sets keeps levels nested so
        # residual connections can restrict instead of re-gather
        next_items = _expand(user_stack, k, users[-1], hop_fanout, rng)
        next_users = _expand(item_stack, k, items[-1], hop_fanout, rng)
        users.append(np.union1d(users[-1], next_users))
        items.append(np.union1d(items[-1], next_items))
    # built seed-first; level 0 must be the widest set
    users.reverse()
    items.reverse()
    user_hops = [
        _BipartiteHop(_hop_slice(user_stack, k, users[level + 1],
                                 items[level], renormalize, dtype),
                      num_dst=users[level + 1].size, num_behaviors=k)
        for level in range(hops)
    ]
    item_hops = [
        _BipartiteHop(_hop_slice(item_stack, k, items[level + 1],
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
    :func:`sample_layered_bipartite`. The square matrix is a stack of one
    behavior, sliced by the same gather with its edge values kept.
    """
    schedule = resolve_fanout(fanout, hops)
    levels = [np.unique(np.asarray(seed_nodes, dtype=np.int64))]
    for hop_fanout in schedule:
        neighbors = _expand(matrix, 1, levels[-1], hop_fanout, rng)
        levels.append(np.union1d(levels[-1], neighbors))
    levels.reverse()
    slices = [
        _hop_slice(matrix, 1, levels[level + 1], levels[level],
                   renormalize=False, dtype=dtype)
        for level in range(hops)
    ]
    return LayeredNodeBlocks(levels, slices)

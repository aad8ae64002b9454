"""The shared propagation engine behind every graph recommender.

Full-graph message passing — ``A_k @ H`` per behavior ``k`` per layer — is
the dominant cost of GNMR (paper §III) and of graph baselines like NGCF.
This module centralizes the three concerns that used to be duplicated
across ``core/gnmr.py``, ``models/ngcf.py`` and the introspection helpers:

* **Adjacency building & normalization.** The engine propagates over the
  per-behavior user-side (users × items) and item-side (items × users)
  adjacency stacks, degree-normalized as requested, in the engine's compute
  dtype (float32 for the fast path) with backward transposes precomputed.
  The graph builds them once per (behaviors, normalization, dtype) —
  :meth:`~repro.graph.MultiBehaviorGraph.normalized_stacks` — and every
  engine over it shares the same read-only arrays.

* **Fused multi-behavior SpMM.** The K per-behavior products ``A_k @ H``
  collapse into a single stacked-CSR product: the K adjacencies are
  vstacked into one ``(K·N) × M`` CSR matrix, one SpMM computes all
  behaviors, and the result is reshaped to ``(N, K, d)``. One scipy call
  and one autograd node replace K calls plus a stack copy.

* **Version-keyed propagation cache.** Inference paths (``score``,
  ``batch_scores`` at eval, the introspection helpers) repeatedly need the
  same forward propagation. The engine memoizes arbitrary propagation
  products under a version counter; ``invalidate()`` (called from the
  models' ``on_step_end``) bumps the version and drops stale entries.

Single-graph models use the ``bipartite`` / ``from_adjacency`` constructors:
the same engine then exposes ``propagate`` over one square (users+items)²
Laplacian, so NGCF shares the dtype handling and cache machinery.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np
import scipy.sparse as sp

from repro.graph.interaction_graph import MultiBehaviorGraph
from repro.graph.layered import (
    LayeredBlock,
    LayeredNodeBlocks,
    sample_layered_bipartite,
    sample_layered_square,
)
from repro.tensor.sparse import SparseAdjacency
from repro.tensor.tensor import Tensor, resolve_dtype

T = TypeVar("T")


def bipartite_laplacian(r: sp.spmatrix, dtype=None) -> SparseAdjacency:
    """Sym-normalized (users+items)² adjacency with self-loops (NGCF's L̂+I).

    ``r`` is the users × items interaction matrix; the result is the square
    block matrix ``[[I, R], [Rᵀ, I]]`` normalized by D⁻½ · D⁻½.
    """
    r = r.tocsr()
    num_users, num_items = r.shape
    upper = sp.hstack([sp.csr_matrix((num_users, num_users)), r])
    lower = sp.hstack([r.T, sp.csr_matrix((num_items, num_items))])
    adjacency = sp.vstack([upper, lower]).tocsr()
    adjacency = adjacency + sp.eye(num_users + num_items, format="csr")
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_sqrt = np.divide(1.0, np.sqrt(degrees), out=np.zeros_like(degrees),
                         where=degrees > 0)
    normalized = sp.diags(inv_sqrt) @ adjacency @ sp.diags(inv_sqrt)
    return SparseAdjacency(normalized, dtype=dtype, precompute_transpose=True)


class PropagationEngine:
    """Owns adjacency structure, fused SpMM, and the propagation cache.

    Build with the main constructor for multi-behavior models (GNMR) or
    with :meth:`bipartite` / :meth:`from_adjacency` for single-graph models
    (NGCF). The two modes expose different propagation methods:

    * multi-behavior — :meth:`propagate_user` / :meth:`propagate_item`
      return the per-behavior message stack ``(N, K, d)``;
    * single-graph — :meth:`propagate` returns ``A @ H`` of shape ``(N, d)``.

    Parameters
    ----------
    graph:
        The :class:`~repro.graph.MultiBehaviorGraph` to propagate over.
    behaviors:
        Behavior subset participating in message passing (``None`` → all).
    normalization:
        ``"row"`` (mean aggregation), ``"sym"`` (GCN), or ``None`` (raw sums).
    dtype:
        Compute dtype of the adjacency values; ``None`` → the module default
        (:func:`repro.tensor.get_default_dtype`).

    >>> import numpy as np
    >>> from repro.data import taobao_like
    >>> graph = taobao_like(num_users=20, num_items=30, seed=0).graph()
    >>> engine = PropagationEngine(graph, normalization="row")
    >>> h_item = np.ones((30, 4))
    >>> engine.propagate_user(h_item).shape     # (users, K behaviors, d)
    (20, 4, 4)
    >>> engine.version
    0
    >>> engine.invalidate(); engine.version     # after a training step
    1
    """

    def __init__(self, graph: MultiBehaviorGraph,
                 behaviors: tuple[str, ...] | list[str] | None = None,
                 normalization: str | None = "row",
                 dtype=None):
        self.dtype = resolve_dtype(dtype)
        if behaviors is None:
            behaviors = graph.behavior_names
        else:
            unknown = set(behaviors) - set(graph.behavior_names)
            if unknown:
                raise ValueError(f"behaviors not in graph: {sorted(unknown)}")
        self.behaviors: tuple[str, ...] = tuple(behaviors)
        self.normalization = normalization
        self.num_users = graph.num_users
        self.num_items = graph.num_items

        # The graph builds each (behaviors, normalization, dtype) stack pair
        # once and every engine over it shares the read-only arrays; only
        # the fused stacks exist — per-behavior adjacencies are
        # re-materialized on demand as row slices (see user_adjacencies).
        # Propagation and block extraction both read the stacks.
        self._user_stack, self._item_stack = graph.normalized_stacks(
            self.behaviors, normalization, self.dtype)
        self._user_slices: list[SparseAdjacency] | None = None
        self._item_slices: list[SparseAdjacency] | None = None
        self._single: SparseAdjacency | None = None
        self._version = 0
        self._cache: dict[object, tuple[int, object]] = {}

    # ------------------------------------------------------------------
    # alternate constructors (single-graph mode)
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency: SparseAdjacency, dtype=None) -> "PropagationEngine":
        """Single-graph engine around one square propagation matrix."""
        engine = cls.__new__(cls)
        engine.dtype = resolve_dtype(dtype)
        engine.behaviors = ()
        engine.normalization = None
        engine.num_users = engine.num_items = adjacency.shape[0]
        engine._user_slices = []
        engine._item_slices = []
        engine._user_stack = engine._item_stack = None
        single = adjacency.astype(engine.dtype)
        single._transposed()  # training backward needs Aᵀ — build it now
        engine._single = single
        engine._version = 0
        engine._cache = {}
        return engine

    @classmethod
    def bipartite(cls, graph: MultiBehaviorGraph, behavior: str | None = None,
                  dtype=None) -> "PropagationEngine":
        """Engine over NGCF's normalized (users+items)² bipartite Laplacian.

        ``behavior=None`` collapses all behavior types into the merged
        (type-blind) interaction matrix; naming a behavior restricts the
        graph to that type's edges.
        """
        if behavior is None:
            r = graph.merged_adjacency().matrix
        else:
            r = graph.adjacency(behavior).matrix
        return cls.from_adjacency(bipartite_laplacian(r, dtype=dtype), dtype=dtype)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    @property
    def num_behaviors(self) -> int:
        return len(self.behaviors)

    def _sliced(self, stack: SparseAdjacency, num_targets: int) -> list[SparseAdjacency]:
        """Re-materialize per-behavior adjacencies from a fused stack.

        Behavior ``k`` occupies rows ``[k·N, (k+1)·N)``; a CSR row slice is
        cheap and only paid when these views are actually requested
        (introspection, tests) — propagation and block extraction never
        need them.
        """
        return [
            SparseAdjacency(stack.matrix[k * num_targets:(k + 1) * num_targets],
                            dtype=self.dtype)
            for k in range(self.num_behaviors)
        ]

    @property
    def user_adjacencies(self) -> list[SparseAdjacency]:
        """Per-behavior users × items adjacencies (normalized, engine dtype)."""
        if self._user_slices is None:
            self._user_slices = self._sliced(self._user_stack, self.num_users)
        return self._user_slices

    @property
    def item_adjacencies(self) -> list[SparseAdjacency]:
        """Per-behavior items × users adjacencies (normalized, engine dtype)."""
        if self._item_slices is None:
            self._item_slices = self._sliced(self._item_stack, self.num_items)
        return self._item_slices

    @property
    def adjacency(self) -> SparseAdjacency:
        """The square propagation matrix of a single-graph engine."""
        if self._single is None:
            raise RuntimeError("multi-behavior engine has no single adjacency; "
                               "use propagate_user/propagate_item")
        return self._single

    def _fused(self, stack: SparseAdjacency, num_targets: int, source: Tensor) -> Tensor:
        """One stacked SpMM → per-behavior message stack ``(N, K, d)``."""
        source = source if isinstance(source, Tensor) else Tensor(source)
        out = stack.matmul(source)                                   # (K·N, d)
        k = self.num_behaviors
        return out.reshape(k, num_targets, source.shape[-1]).transpose(1, 0, 2)

    def propagate_user(self, h_item: Tensor) -> Tensor:
        """Aggregate item embeddings to users: ``(num_users, K, d)``."""
        if self._user_stack is None:
            raise RuntimeError("single-graph engine: use propagate()")
        return self._fused(self._user_stack, self.num_users, h_item)

    def propagate_item(self, h_user: Tensor) -> Tensor:
        """Aggregate user embeddings to items: ``(num_items, K, d)``."""
        if self._item_stack is None:
            raise RuntimeError("single-graph engine: use propagate()")
        return self._fused(self._item_stack, self.num_items, h_user)

    def propagate(self, h: Tensor) -> Tensor:
        """Single-graph propagation ``A @ H`` of shape ``(N, d)``."""
        return self.adjacency.matmul(h)

    # ------------------------------------------------------------------
    # layered block extraction (mini-batch training, cold-user serving)
    # ------------------------------------------------------------------
    def layered_subgraph(self, seed_users: np.ndarray,
                         seed_items: np.ndarray, hops: int = 1, fanout=10,
                         rng: np.random.Generator | None = None) -> LayeredBlock:
        """Fanout-capped L-hop per-hop blocks around batch seeds.

        Expands the seed users/items backwards through every behavior's
        adjacency for ``hops`` rounds, sampling at most ``fanout``
        neighbors per (node, behavior) (``None`` → no cap; a ``[10, 5]``
        sequence schedules the cap per hop — see
        :func:`~repro.graph.layered.resolve_fanout`), and returns a
        :class:`~repro.graph.layered.LayeredBlock`: one induced bipartite
        slice per hop, each aggregating only the rows the next layer
        actually needs, down to the seeds at the top. Row-normalized
        engines re-normalize the sliced rows so messages stay means over
        the included neighborhood; at ``fanout=None`` the seed outputs are
        bit-exact full-graph values.
        """
        if self._user_stack is None:
            raise RuntimeError("single-graph engine: use layered_subgraph_nodes()")
        rng = rng or np.random.default_rng()
        return sample_layered_bipartite(
            self._user_stack.matrix, self._item_stack.matrix,
            self.num_behaviors, seed_users, seed_items, hops, fanout, rng,
            dtype=self.dtype,
            renormalize=self.normalization == "row",
        )

    def layered_subgraph_nodes(self, seed_nodes: np.ndarray, hops: int = 1,
                               fanout=10,
                               rng: np.random.Generator | None = None,
                               ) -> LayeredNodeBlocks:
        """Per-hop blocks of a single-graph engine (NGCF mode).

        ``seed_nodes`` live in the engine's joint index space (users then
        items for a bipartite Laplacian). ``fanout`` accepts a scalar or a
        per-hop schedule. Edge values keep their original normalization;
        the level sets are nested, so self-loops survive slicing and every
        node keeps its identity message.
        """
        if self._single is None:
            raise RuntimeError("multi-behavior engine: use layered_subgraph()")
        rng = rng or np.random.default_rng()
        return sample_layered_square(self._single.matrix, seed_nodes,
                                     hops, fanout, rng, dtype=self.dtype)

    # ------------------------------------------------------------------
    # version-keyed propagation cache
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter; bumped whenever cached results become stale."""
        return self._version

    def invalidate(self) -> None:
        """Parameters changed — drop every cached propagation product."""
        self._version += 1
        self._cache.clear()

    def cached(self, key, compute: Callable[[], T]) -> T:
        """Return the memoized value of ``compute`` for the current version.

        ``key`` names the product (e.g. ``"layers"``); the entry is reused
        until :meth:`invalidate` is called.
        """
        entry = self._cache.get(key)
        if entry is not None and entry[0] == self._version:
            return entry[1]  # type: ignore[return-value]
        value = compute()
        self.prime(key, value)
        return value

    def prime(self, key, value) -> None:
        """Hold ``value`` (from the current parameters) as ``key``'s product."""
        self._cache[key] = (self._version, value)

"""NGCF baseline (Wang et al., SIGIR 2019).

Neural Graph Collaborative Filtering: embedding propagation over the
user–item graph with the bi-interaction message
``E^{l+1} = LeakyReLU(L̂ E^l W1 + (L̂ E^l) ⊙ E^l W2)`` where L̂ is the
symmetrically normalized bipartite adjacency with self-loops. NGCF cannot
differentiate behavior types; ``graph_mode`` selects whether it sees only
the target behavior or the type-collapsed union of all behaviors
(default — the stronger variant).

Adjacency construction and propagation run through the shared
:class:`~repro.graph.engine.PropagationEngine` (single-graph mode), which
also provides the version-keyed cache behind :meth:`NGCF.score` and the
``dtype`` fast path.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.graph.engine import PropagationEngine
from repro.models.base import Recommender
from repro.nn import init as init_schemes
from repro.nn.layers import Linear
from repro.nn.module import ModuleList, Parameter
from repro.tensor import Tensor, default_dtype, no_grad


class NGCF(Recommender):
    """Graph collaborative filtering on a single (type-blind) graph."""

    name = "NGCF"

    def __init__(self, dataset: InteractionDataset, embedding_dim: int = 16,
                 num_layers: int = 2, graph_mode: str = "merged", seed: int = 0,
                 dtype: str | None = None):
        super().__init__(dataset.num_users, dataset.num_items)
        if graph_mode not in ("merged", "target"):
            raise ValueError("graph_mode must be 'merged' or 'target'")
        with default_dtype(dtype):  # None → ambient default
            rng = np.random.default_rng(seed)
            behavior = None if graph_mode == "merged" else dataset.target_behavior
            self.engine = PropagationEngine.bipartite(dataset.graph(), behavior)
            self.user_embeddings = Parameter(init_schemes.xavier_normal(
                (self.num_users, embedding_dim), rng), name="E_u")
            self.item_embeddings = Parameter(init_schemes.xavier_normal(
                (self.num_items, embedding_dim), rng), name="E_v")
            self.w1 = ModuleList([Linear(embedding_dim, embedding_dim, rng=rng)
                                  for _ in range(num_layers)])
            self.w2 = ModuleList([Linear(embedding_dim, embedding_dim, rng=rng)
                                  for _ in range(num_layers)])
        self.num_layers = num_layers

    # ------------------------------------------------------------------
    def _bi_interaction_stack(self, ego: Tensor, propagate,
                              restrict) -> list[Tensor]:
        """The one W1/W2 bi-interaction loop behind every propagation mode.

        ``propagate(level, h)`` produces the level's aggregated messages;
        ``restrict(level, h)`` maps the previous level's tensor onto the
        rows the next level keeps (identity on the full graph, a row gather
        for shrinking layered blocks). The full-graph and mini-batch paths
        share this loop by construction.
        """
        layers = [ego]
        current = ego
        for level, (w1, w2) in enumerate(zip(self.w1, self.w2)):
            side = propagate(level, current)
            messages = w1(side) + w2(side * restrict(level, current))
            current = messages.leaky_relu(0.2)
            layers.append(current)
        return layers

    def propagate(self) -> tuple[Tensor, Tensor]:
        """Multi-order embeddings concatenated across layers (NGCF §3.3)."""
        from repro.tensor.tensor import concat

        ego = concat([self.user_embeddings, self.item_embeddings], axis=0)
        all_layers = concat(self._bi_interaction_stack(
            ego, lambda level, h: self.engine.propagate(h),
            lambda level, h: h), axis=1)
        users = all_layers[np.arange(self.num_users)]
        items = all_layers[np.arange(self.num_users, self.num_users + self.num_items)]
        return users, items

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        user_table, item_table = self.propagate()
        picked_u = user_table.gather_rows(np.asarray(users, dtype=np.int64))
        picked_v = item_table.gather_rows(np.asarray(items, dtype=np.int64))
        return (picked_u * picked_v).sum(axis=1)

    def batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                     neg_items: np.ndarray) -> tuple[Tensor, Tensor]:
        user_table, item_table = self.propagate()
        users = np.asarray(users, dtype=np.int64)
        u = user_table.gather_rows(users)
        pos = (u * item_table.gather_rows(np.asarray(pos_items, dtype=np.int64))).sum(axis=1)
        neg = (u * item_table.gather_rows(np.asarray(neg_items, dtype=np.int64))).sum(axis=1)
        return pos, neg

    def l2_batch(self, users: np.ndarray, pos_items: np.ndarray,
                 neg_items: np.ndarray, weight: float) -> Tensor:
        """λ‖Θ_batch‖²: batch embedding rows + the W1/W2 layer weights."""
        return self._embedding_l2_batch(self.user_embeddings,
                                        self.item_embeddings,
                                        users, pos_items, neg_items, weight)

    # ------------------------------------------------------------------
    # layered (mini-batch) propagation
    # ------------------------------------------------------------------
    def extract_block(self, users: np.ndarray, pos_items: np.ndarray,
                      neg_items: np.ndarray, *, fanout=10,
                      rng: np.random.Generator | None = None):
        """Prefetchable per-hop blocks in the joint (users+items) space.

        Seeds are the batch's user nodes and item nodes in the Laplacian's
        joint index space; the engine expands them ``num_layers`` hops
        with a fanout cap.
        """
        users = np.asarray(users, dtype=np.int64)
        item_nodes = self.num_users + np.concatenate([
            np.asarray(pos_items, dtype=np.int64),
            np.asarray(neg_items, dtype=np.int64)])
        return self.engine.layered_subgraph_nodes(
            np.concatenate([users, item_nodes]),
            hops=self.num_layers, fanout=fanout, rng=rng)

    def _ego_rows(self, nodes: np.ndarray) -> Tensor:
        """Row-sparse gather of the split ego table for a joint node set."""
        from repro.tensor.tensor import concat

        user_rows = nodes[nodes < self.num_users]
        item_rows = nodes[nodes >= self.num_users] - self.num_users
        pieces = []
        if user_rows.size:
            pieces.append(self.user_embeddings.embedding_rows(user_rows))
        if item_rows.size:
            pieces.append(self.item_embeddings.embedding_rows(item_rows))
        return pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)

    def block_batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                           neg_items: np.ndarray, block,
                           ) -> tuple[Tensor, Tensor]:
        """Batch scores over prefetched per-hop blocks.

        The block's widest level is gathered with row-sparse
        ``embedding_rows`` — node ids below ``num_users`` from the user
        table, the rest from the item table. Each bi-interaction layer
        computes only the next (shrinking) level set; the final NGCF
        concatenation gathers every level's seed rows.
        """
        from repro.tensor.tensor import concat

        users = np.asarray(users, dtype=np.int64)
        pos_items = np.asarray(pos_items, dtype=np.int64)
        neg_items = np.asarray(neg_items, dtype=np.int64)
        levels = self._bi_interaction_stack(
            self._ego_rows(block.levels[0]),
            lambda level, h: block.propagate(level, h),
            lambda level, h: h.gather_rows(block.restrict(level + 1)))

        def embed(node_ids: np.ndarray) -> Tensor:
            return concat([
                h.gather_rows(block.localize(level, node_ids))
                for level, h in enumerate(levels)], axis=1)

        u = embed(users)
        pos = (u * embed(self.num_users + pos_items)).sum(axis=1)
        neg = (u * embed(self.num_users + neg_items)).sum(axis=1)
        return pos, neg

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Engine-cached propagated embedding tables (inference mode)."""
        def compute():
            with no_grad():
                user_table, item_table = self.propagate()
            return user_table.data, item_table.data

        return self.engine.cached("ngcf.tables", compute)

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        user_table, item_table = self._tables()
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return np.sum(user_table[users] * item_table[items], axis=1)

    def serving_embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """The concatenated multi-layer tables already used by ``score``."""
        return self._tables()

    def cold_user_embeddings(self, users: np.ndarray) -> np.ndarray:
        """Serving rows for a few users, freshly extracted on demand.

        The cold-user path for the serving tier: an exact backward
        neighborhood (``fanout=None``) in the joint node space, the usual
        bi-interaction stack, and the per-level seed rows concatenated —
        matching those users' rows in :meth:`serving_embeddings`
        recomputed from current parameters to within a float64 ulp.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        block = self.engine.layered_subgraph_nodes(
            users, hops=self.num_layers, fanout=None)
        with no_grad():
            levels = self._bi_interaction_stack(
                self._ego_rows(block.levels[0]),
                lambda level, h: block.propagate(level, h),
                lambda level, h: h.gather_rows(block.restrict(level + 1)))
        return np.concatenate([h.data[block.localize(level, users)]
                               for level, h in enumerate(levels)], axis=1)

    def on_step_end(self) -> None:
        self.engine.invalidate()

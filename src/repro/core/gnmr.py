"""The GNMR recommender (paper §III, Figure 1).

Full-graph propagation: starting from (pre-trained) order-0 embeddings, L
:class:`~repro.core.layers.GNMRPropagationLayer` applications produce
multi-order user/item embeddings H⁰..H^L; the preference score is the
multi-order matching Σ_l H^l_u · H^l_v, trained with the pairwise hinge
loss of Eq. (7). Mini-batch steps run the same layer stack over a per-hop
layered block instead (:meth:`GNMR.extract_block` +
:meth:`GNMR.block_batch_scores`).

All adjacency handling, the fused multi-behavior SpMM, and the propagation
cache live in the shared :class:`~repro.graph.engine.PropagationEngine`;
this class owns the parameters and the multi-order matching. Precision is
governed by ``config.dtype`` — float64 for bit-reproducible runs, float32
for the bandwidth-bound fast path.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

import numpy as np

from repro.core.config import GNMRConfig
from repro.core.layers import GNMRPropagationLayer
from repro.core.pretrain import pretrain_embeddings
from repro.data.dataset import InteractionDataset
from repro.graph.engine import PropagationEngine
from repro.models.base import Recommender
from repro.nn import init as init_schemes
from repro.nn.layers import Dropout
from repro.nn.module import ModuleList, Parameter
from repro.tensor import Tensor, default_dtype, no_grad
from repro.utils.integrity import array_sha256

#: sentinel meaning "use ``config.fanout``" — ``None`` already means "no cap"
_CONFIG_FANOUT = object()


class GNMR(Recommender):
    """Graph Neural Multi-Behavior Enhanced Recommendation.

    Parameters
    ----------
    dataset:
        Training dataset; its interaction graph defines the propagation
        structure and its ``target_behavior`` the prediction task.
    config:
        Hyperparameters (see :class:`~repro.core.config.GNMRConfig`).

    Notes
    -----
    The ablations of §IV-C/D/E map to configuration, not separate classes:

    * GNMR-be — ``config.variant(use_behavior_embedding=False)``;
    * GNMR-ma — ``config.variant(use_message_attention=False)``;
    * depth sweep — ``config.variant(num_layers=L)``;
    * behavior subsets — ``dataset.drop_behaviors([...])`` / ``only_target()``;
    * fast path — ``config.variant(dtype="float32")``.
    """

    name = "GNMR"

    def __init__(self, dataset: InteractionDataset, config: GNMRConfig | None = None):
        super().__init__(dataset.num_users, dataset.num_items)
        self.config = config or GNMRConfig()
        self.dataset = dataset
        cfg = self.config
        if cfg.graph_behaviors is None:
            self.behavior_names = dataset.behavior_names
        else:
            unknown = set(cfg.graph_behaviors) - set(dataset.behavior_names)
            if unknown:
                raise ValueError(f"graph_behaviors not in dataset: {sorted(unknown)}")
            self.behavior_names = tuple(cfg.graph_behaviors)

        with default_dtype(cfg.dtype):  # None → ambient default
            self._build(dataset, cfg)

    def _build(self, dataset: InteractionDataset, cfg: GNMRConfig) -> None:
        """Construct engine, embeddings and layers under the dtype scope."""
        rng = np.random.default_rng(cfg.seed)
        self.engine = PropagationEngine(
            dataset.graph(),
            behaviors=self.behavior_names,
            normalization="row" if cfg.aggregator == "mean" else None,
        )

        # order-0 embeddings (autoencoder pre-training per §III-A)
        if cfg.pretrain:
            user_init, item_init = pretrain_embeddings(
                dataset, cfg.embedding_dim, epochs=cfg.pretrain_epochs,
                lr=cfg.pretrain_lr, seed=cfg.seed,
            )
        else:
            user_init = init_schemes.xavier_normal((self.num_users, cfg.embedding_dim), rng)
            item_init = init_schemes.xavier_normal((self.num_items, cfg.embedding_dim), rng)
        self.user_embeddings = Parameter(user_init, name="user_embeddings")
        self.item_embeddings = Parameter(item_init, name="item_embeddings")

        self.layers = ModuleList([
            GNMRPropagationLayer(
                cfg.embedding_dim, cfg.memory_dims, cfg.num_heads, rng,
                use_behavior_embedding=cfg.use_behavior_embedding,
                use_message_attention=cfg.use_message_attention,
                use_gated_aggregation=cfg.use_gated_aggregation,
            )
            for _ in range(cfg.num_layers)
        ])
        self.dropout = Dropout(cfg.dropout, rng=rng) if cfg.dropout > 0 else None

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _run_layer_stack(self, h_user: Tensor, h_item: Tensor,
                         propagate_user, propagate_item,
                         restrict_user, restrict_item,
                         ) -> tuple[list[Tensor], list[Tensor]]:
        """The one L-layer η/ξ/ψ loop behind every propagation mode.

        ``propagate_*(level, h)`` produces the level's ``(n, K, d)``
        message stack; ``restrict_*(level, h)`` maps the previous level's
        tensor onto the rows the next level keeps (identity on the full
        graph, a row gather for shrinking layered blocks). The full-graph
        and mini-batch paths share this loop by construction — change the
        layer recipe here and both follow.
        """
        user_layers: list[Tensor] = [h_user]
        item_layers: list[Tensor] = [h_item]
        for level, layer in enumerate(self.layers):
            next_user = layer(propagate_user(level, h_item))
            next_item = layer(propagate_item(level, h_user))
            if self.config.self_connection:
                next_user = next_user + restrict_user(level, h_user)
                next_item = next_item + restrict_item(level, h_item)
            if self.dropout is not None:
                next_user = self.dropout(next_user)
                next_item = self.dropout(next_item)
            user_layers.append(next_user)
            item_layers.append(next_item)
            h_user, h_item = next_user, next_item
        return user_layers, item_layers

    def propagate(self) -> tuple[list[Tensor], list[Tensor]]:
        """Compute multi-order embeddings [H⁰..H^L] for users and items."""
        return self._run_layer_stack(
            self.user_embeddings, self.item_embeddings,
            lambda level, h: self.engine.propagate_user(h),
            lambda level, h: self.engine.propagate_item(h),
            lambda level, h: h,
            lambda level, h: h)

    def _match(self, user_layers: list[Tensor], item_layers: list[Tensor],
               user_rows: Iterable[np.ndarray],
               item_rows: Iterable[np.ndarray]) -> Tensor:
        """Multi-order matching: Σ_l ⟨H^l_u, H^l_v⟩, reading at level ``l``
        the ``l``-th index array of ``user_rows`` / ``item_rows``."""
        total: Tensor | None = None
        for h_user, h_item, rows_u, rows_v in zip(user_layers, item_layers,
                                                  user_rows, item_rows):
            dot = (h_user.gather_rows(rows_u) * h_item.gather_rows(rows_v)).sum(axis=1)
            total = dot if total is None else total + dot
        return total

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        user_layers, item_layers = self.propagate()
        return self._match(user_layers, item_layers,
                           repeat(np.asarray(users, dtype=np.int64)),
                           repeat(np.asarray(items, dtype=np.int64)))

    def batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                     neg_items: np.ndarray) -> tuple[Tensor, Tensor]:
        """One propagation pass shared by the positive and negative sides."""
        user_layers, item_layers = self.propagate()
        users = np.asarray(users, dtype=np.int64)
        pos = self._match(user_layers, item_layers, repeat(users),
                          repeat(np.asarray(pos_items, dtype=np.int64)))
        neg = self._match(user_layers, item_layers, repeat(users),
                          repeat(np.asarray(neg_items, dtype=np.int64)))
        return pos, neg

    # ------------------------------------------------------------------
    # layered (mini-batch) propagation
    # ------------------------------------------------------------------
    def extract_block(self, users: np.ndarray, pos_items: np.ndarray,
                      neg_items: np.ndarray, *, fanout=_CONFIG_FANOUT,
                      rng: np.random.Generator | None = None):
        """Prefetchable per-hop :class:`~repro.graph.LayeredBlock`.

        Seeds are the batch users plus their positive/negative items; the
        engine expands them L hops with per-(node, behavior) fanout caps
        (scalar or per-hop schedule; defaults to ``config.fanout``), so the
        step cost scales with ``batch × fanout^L`` instead of the graph
        size. Pure graph work — no parameters are read — so the training
        pipeline may run it on a background worker while the optimizer
        applies the previous step. :meth:`block_batch_scores` consumes the
        result.
        """
        if fanout is _CONFIG_FANOUT:
            fanout = self.config.fanout
        users = np.asarray(users, dtype=np.int64)
        seed_items = np.concatenate([
            np.asarray(pos_items, dtype=np.int64),
            np.asarray(neg_items, dtype=np.int64)])
        return self.engine.layered_subgraph(
            users, seed_items, hops=self.config.num_layers,
            fanout=fanout, rng=rng)

    def propagate_layered(self, block) -> tuple[list[Tensor], list[Tensor]]:
        """Seed-focused multi-order embeddings over per-hop blocks.

        Level-``l`` tensors live on ``block.user_levels[l]`` /
        ``block.item_levels[l]`` — each layer computes only the rows the
        next one aggregates, down to the seeds. The order-0 rows are
        gathered with ``embedding_rows``, so the backward pass emits a
        :class:`~repro.tensor.RowSparseGrad` holding only the block rows
        and Adam's per-step work scales with the block, not the tables.
        """
        return self._run_layer_stack(
            self.user_embeddings.embedding_rows(block.user_levels[0]),
            self.item_embeddings.embedding_rows(block.item_levels[0]),
            lambda level, h: block.user_hops[level].propagate(h),
            lambda level, h: block.item_hops[level].propagate(h),
            lambda level, h: h.gather_rows(block.restrict_users(level + 1)),
            lambda level, h: h.gather_rows(block.restrict_items(level + 1)))

    def block_batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                           neg_items: np.ndarray, block,
                           ) -> tuple[Tensor, Tensor]:
        """Batch scores over a prefetched layered block.

        The multi-order matching gathers each order's seed rows from its
        own (shrinking) level tensor; level ``L`` already holds seeds only.
        """
        user_layers, item_layers = self.propagate_layered(block)
        levels = range(len(user_layers))
        user_rows = [block.localize_users(level, np.asarray(users, dtype=np.int64))
                     for level in levels]

        def item_rows(items: np.ndarray) -> list[np.ndarray]:
            items = np.asarray(items, dtype=np.int64)
            return [block.localize_items(level, items) for level in levels]

        return (self._match(user_layers, item_layers, user_rows, item_rows(pos_items)),
                self._match(user_layers, item_layers, user_rows, item_rows(neg_items)))

    def l2_batch(self, users: np.ndarray, pos_items: np.ndarray,
                 neg_items: np.ndarray, weight: float) -> Tensor:
        """λ‖Θ_batch‖²: batch embedding rows + the always-touched layers."""
        return self._embedding_l2_batch(self.user_embeddings,
                                        self.item_embeddings,
                                        users, pos_items, neg_items, weight)

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Inference scores over the engine-cached tables, level by level."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        user_table, item_table = self._tables()
        d = self.config.embedding_dim
        total = np.zeros(users.shape, dtype=user_table.dtype)
        for start in range(0, user_table.shape[1], d):
            level = slice(start, start + d)
            total += np.sum(user_table[users, level] * item_table[items, level],
                            axis=1)
        return total

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """H⁰..H^L side by side: one C-contiguous ``(N, (L+1)·d)`` table per
        side, level ``l`` in columns ``l·d:(l+1)·d``; cached per engine
        version."""
        def compute():
            with no_grad():  # also keeps dropout off
                user_layers, item_layers = self.propagate()
            return tuple(np.concatenate([t.data for t in layers], axis=1)
                         for layers in (user_layers, item_layers))

        return self.engine.cached("gnmr.tables", compute)

    def serving_embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """The tables :meth:`score` reads, themselves.

        Σ_l ⟨H^l_u, H^l_v⟩ equals ⟨concat_l H^l_u, concat_l H^l_v⟩, so the
        full multi-order matching collapses to a single inner product —
        exactly what the blocked top-K retriever needs.
        """
        return self._tables()

    def cold_user_embeddings(self, users: np.ndarray) -> np.ndarray:
        """Serving rows for a few users, freshly extracted on demand.

        Single-seed layered extraction (``fanout=None`` → the exact
        backward neighborhood, no sampling) followed by the usual layer
        stack computes just these users' multi-order rows from the
        *current* parameters — matching the corresponding rows of
        :meth:`serving_embeddings` after the next snapshot to within a
        float64 ulp (the sliced-CSR hop kernels may sum a row in a
        different order than the fused full-graph SpMM), at the cost of
        one L-hop neighborhood instead of the whole graph. This is the
        serving tier's ``cold=1`` path: a user's rows from the current
        parameters, without waiting for the next snapshot.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        block = self.engine.layered_subgraph(
            users, np.empty(0, dtype=np.int64),
            hops=self.config.num_layers, fanout=None)
        with no_grad():  # dropout off, matching cached inference
            user_layers, _ = self.propagate_layered(block)
        rows = [h.data[block.localize_users(level, users)]
                for level, h in enumerate(user_layers)]
        return np.concatenate(rows, axis=1)

    def on_step_end(self) -> None:
        """Parameters changed — drop the cached propagation."""
        self.engine.invalidate()

    def propagation_fingerprint(self) -> str:
        """sha256 of what layers 1..L read besides the parameters (not
        ``seed``, ``pretrain``, ``dropout``, ``fanout``)."""
        settings = np.array([getattr(self.config, name) for name in (
            "num_layers", "num_heads", "self_connection", "use_behavior_embedding",
            "use_message_attention", "use_gated_aggregation")])
        stacks = [getattr(stack.matrix, part)
                  for stack in (self.engine._user_stack, self.engine._item_stack)
                  for part in ("indptr", "indices", "data")]
        return array_sha256(settings, *stacks)

    def propagation_tables(self) -> tuple[str, dict[str, np.ndarray]]:
        """Fingerprint and levels 1..L, one ``(N, L·d)`` column view per side
        (``"user"``, ``"item"``), for a checkpoint."""
        d = self.config.embedding_dim
        return self.propagation_fingerprint(), {
            side: table[:, d:] for side, table in zip(("user", "item"), self._tables())}

    def restore_propagation(self, fingerprint: str | None,
                            tables: dict[str, np.ndarray]) -> None:
        """Serve stored levels 1..L if they fit this model's fingerprint and
        layout; otherwise the model propagates on first use."""
        order0 = [self.user_embeddings.data, self.item_embeddings.data]
        stored = [tables.get(side) for side in ("user", "item")]
        width = len(self.layers) * self.config.embedding_dim
        fits = all(t is not None and (t.shape, t.dtype) == ((len(h), width), h.dtype)
                   for t, h in zip(stored, order0))
        if fits and len(tables) == 2 and fingerprint == self.propagation_fingerprint():
            self.engine.prime("gnmr.tables", tuple(
                np.concatenate([h, t], axis=1) for h, t in zip(order0, stored)))

    # ------------------------------------------------------------------
    # introspection (used by examples and tests)
    # ------------------------------------------------------------------
    def _first_layer_stack(self) -> Tensor:
        """η-transformed first-layer user-side messages ``(I, K, d)``."""
        return self.layers[0].type_specific(
            self.engine.propagate_user(self.item_embeddings))

    def behavior_attention(self) -> np.ndarray:
        """Average cross-behavior attention matrix of the first layer.

        Returns an array of shape (K, K) — how much each behavior type
        attends to each other when recalibrating messages; useful for
        inspecting learned behavior dependencies.
        """
        if not self.layers or self.layers[0].attention is None:
            raise RuntimeError("model has no attention layer (GNMR-ma or 0 layers)")
        with no_grad():
            _, weights = self.layers[0].attention(self._first_layer_stack())
        return weights.data.mean(axis=(0, 1))

    def behavior_importance(self) -> np.ndarray:
        """Average ψ gate weights per behavior type (K,) on the user side."""
        if not self.layers or self.layers[0].aggregation is None:
            raise RuntimeError("model has no gated aggregation")
        with no_grad():
            layer = self.layers[0]
            stacked = self._first_layer_stack()
            if layer.attention is not None:
                stacked, _ = layer.attention(stacked)
            _, weights = layer.aggregation(stacked)
        return weights.data.mean(axis=0)

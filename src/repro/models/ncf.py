"""Neural Collaborative Filtering baselines (He et al., WWW 2017).

Three variants as evaluated in the paper's Table II:

* ``NCF-G`` (GMF) — fixed element-wise product of user/item embeddings,
  projected to a scalar;
* ``NCF-M`` (MLP) — multi-layer perceptron over the concatenated
  embeddings;
* ``NCF-N`` (NeuMF) — fusion of a GMF branch and an MLP branch.

All three override ``block_batch_scores`` to gather their embedding
tables with the row-sparse ``Embedding.rows`` lookup — same forward
values as the dense path, but the backward emits ``RowSparseGrad``s so
mini-batch optimizer work scales with the batch, not the tables.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Recommender
from repro.nn.layers import Embedding, MLP, Linear
from repro.tensor import Tensor
from repro.tensor.tensor import concat


def _batch_arrays(users, pos_items, neg_items):
    return (np.asarray(users, dtype=np.int64),
            np.asarray(pos_items, dtype=np.int64),
            np.asarray(neg_items, dtype=np.int64))


class NCFGMF(Recommender):
    """NCF-G: generalized matrix factorization branch alone."""

    name = "NCF-G"

    def __init__(self, num_users: int, num_items: int, embedding_dim: int = 16,
                 seed: int = 0):
        super().__init__(num_users, num_items)
        rng = np.random.default_rng(seed)
        self.user_embeddings = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embeddings = Embedding(num_items, embedding_dim, rng=rng)
        self.output = Linear(embedding_dim, 1, rng=rng)

    def _combine(self, p: Tensor, q: Tensor) -> Tensor:
        return self.output(p * q).squeeze(-1)

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self._combine(self.user_embeddings(users),
                             self.item_embeddings(items))

    def block_batch_scores(self, users, pos_items, neg_items,
                           block=None) -> tuple[Tensor, Tensor]:
        """Row-sparse-gathered batch scores (no graph, so no block)."""
        del block  # no graph: extract_block returns None
        users, pos_items, neg_items = _batch_arrays(users, pos_items, neg_items)
        p = self.user_embeddings.rows(users)
        return (self._combine(p, self.item_embeddings.rows(pos_items)),
                self._combine(p, self.item_embeddings.rows(neg_items)))

    def l2_batch(self, users, pos_items, neg_items, weight: float) -> Tensor:
        return self._embedding_l2_batch(
            self.user_embeddings, self.item_embeddings,
            users, pos_items, neg_items, weight)


class NCFMLP(Recommender):
    """NCF-M: MLP over concatenated user/item embeddings."""

    name = "NCF-M"

    def __init__(self, num_users: int, num_items: int, embedding_dim: int = 16,
                 hidden_sizes: tuple[int, ...] = (32, 16), seed: int = 0):
        super().__init__(num_users, num_items)
        rng = np.random.default_rng(seed)
        self.user_embeddings = Embedding(num_users, embedding_dim, rng=rng)
        self.item_embeddings = Embedding(num_items, embedding_dim, rng=rng)
        self.mlp = MLP([2 * embedding_dim, *hidden_sizes, 1], rng=rng)

    def _combine(self, p: Tensor, q: Tensor) -> Tensor:
        return self.mlp(concat([p, q], axis=-1)).squeeze(-1)

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self._combine(self.user_embeddings(users),
                             self.item_embeddings(items))

    def block_batch_scores(self, users, pos_items, neg_items,
                           block=None) -> tuple[Tensor, Tensor]:
        """Row-sparse-gathered batch scores (no graph, so no block)."""
        del block  # no graph: extract_block returns None
        users, pos_items, neg_items = _batch_arrays(users, pos_items, neg_items)
        p = self.user_embeddings.rows(users)
        return (self._combine(p, self.item_embeddings.rows(pos_items)),
                self._combine(p, self.item_embeddings.rows(neg_items)))

    def l2_batch(self, users, pos_items, neg_items, weight: float) -> Tensor:
        return self._embedding_l2_batch(
            self.user_embeddings, self.item_embeddings,
            users, pos_items, neg_items, weight)


class NeuMF(Recommender):
    """NCF-N: NeuMF — fused GMF + MLP branches with separate embeddings."""

    name = "NCF-N"

    def __init__(self, num_users: int, num_items: int, embedding_dim: int = 16,
                 hidden_sizes: tuple[int, ...] = (32, 16), seed: int = 0):
        super().__init__(num_users, num_items)
        rng = np.random.default_rng(seed)
        self.gmf_user = Embedding(num_users, embedding_dim, rng=rng)
        self.gmf_item = Embedding(num_items, embedding_dim, rng=rng)
        self.mlp_user = Embedding(num_users, embedding_dim, rng=rng)
        self.mlp_item = Embedding(num_items, embedding_dim, rng=rng)
        self.mlp = MLP([2 * embedding_dim, *hidden_sizes], out_activation="relu", rng=rng)
        self.output = Linear(embedding_dim + hidden_sizes[-1], 1, rng=rng)

    def _combine(self, gmf_u: Tensor, gmf_i: Tensor,
                 mlp_u: Tensor, mlp_i: Tensor) -> Tensor:
        gmf_vector = gmf_u * gmf_i
        mlp_vector = self.mlp(concat([mlp_u, mlp_i], axis=-1))
        return self.output(concat([gmf_vector, mlp_vector], axis=-1)).squeeze(-1)

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self._combine(self.gmf_user(users), self.gmf_item(items),
                             self.mlp_user(users), self.mlp_item(items))

    def block_batch_scores(self, users, pos_items, neg_items,
                           block=None) -> tuple[Tensor, Tensor]:
        """Row-sparse gathers across all four embedding tables."""
        del block  # no graph: extract_block returns None
        users, pos_items, neg_items = _batch_arrays(users, pos_items, neg_items)
        gmf_u = self.gmf_user.rows(users)
        mlp_u = self.mlp_user.rows(users)

        def score(items: np.ndarray) -> Tensor:
            return self._combine(gmf_u, self.gmf_item.rows(items),
                                 mlp_u, self.mlp_item.rows(items))

        return score(pos_items), score(neg_items)

    def l2_batch(self, users, pos_items, neg_items, weight: float) -> Tensor:
        users, pos_items, neg_items = _batch_arrays(users, pos_items, neg_items)
        items = np.concatenate([pos_items, neg_items])
        return self._tables_l2_batch(
            [(self.gmf_user, users), (self.mlp_user, users),
             (self.gmf_item, items), (self.mlp_item, items)],
            weight)

"""BiasMF baseline (Koren et al., 2009).

Matrix factorization with user/item bias terms:
``score(u, i) = μ + b_u + b_i + p_u · q_i``, trained on the target behavior
with the shared pairwise objective. In mini-batch (`async`) training every
table — factors *and* the 1-D bias vectors — is gathered with the
row-sparse ``embedding_rows`` op, so the optimizer touches only the batch
rows instead of sweeping the full tables each step.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import Recommender
from repro.nn import init as init_schemes
from repro.nn.module import Parameter
from repro.tensor import Tensor


class BiasMF(Recommender):
    """Biased matrix factorization."""

    name = "BiasMF"

    def __init__(self, num_users: int, num_items: int, embedding_dim: int = 16,
                 seed: int = 0):
        super().__init__(num_users, num_items)
        rng = np.random.default_rng(seed)
        self.user_factors = Parameter(
            init_schemes.normal((num_users, embedding_dim), rng, std=0.05), name="P")
        self.item_factors = Parameter(
            init_schemes.normal((num_items, embedding_dim), rng, std=0.05), name="Q")
        self.user_bias = Parameter(np.zeros(num_users), name="b_u")
        self.item_bias = Parameter(np.zeros(num_items), name="b_i")
        self.global_bias = Parameter(np.zeros(1), name="mu")

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        p = self.user_factors.gather_rows(users)
        q = self.item_factors.gather_rows(items)
        interaction = (p * q).sum(axis=1)
        return (interaction
                + self.user_bias.gather_rows(users)
                + self.item_bias.gather_rows(items)
                + self.global_bias.gather_rows(np.zeros_like(users)))

    # ------------------------------------------------------------------
    # mini-batch (row-sparse) training path
    # ------------------------------------------------------------------
    def _sparse_scores(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """``score_tensor`` with row-sparse gathers (1-D bias rows too)."""
        p = self.user_factors.embedding_rows(users)
        q = self.item_factors.embedding_rows(items)
        interaction = (p * q).sum(axis=1)
        return (interaction
                + self.user_bias.embedding_rows(users)
                + self.item_bias.embedding_rows(items)
                + self.global_bias.gather_rows(np.zeros_like(users)))

    def block_batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                           neg_items: np.ndarray, block=None,
                           ) -> tuple[Tensor, Tensor]:
        """Batch scores whose backward stays row-sparse on all four tables.

        No graph, so no block (``extract_block`` returns ``None``); the
        point of overriding the dense fallback is that gradients reach
        ``P``/``Q`` and the bias vectors as ``RowSparseGrad``s, so
        mini-batch optimizer work scales with the batch instead of the
        user/item counts.
        """
        del block
        users = np.asarray(users, dtype=np.int64)
        pos_items = np.asarray(pos_items, dtype=np.int64)
        neg_items = np.asarray(neg_items, dtype=np.int64)
        return (self._sparse_scores(users, pos_items),
                self._sparse_scores(users, neg_items))

    def l2_batch(self, users: np.ndarray, pos_items: np.ndarray,
                 neg_items: np.ndarray, weight: float) -> Tensor:
        """λ‖Θ_batch‖² over the touched rows of all four tables + μ."""
        items = np.concatenate([np.asarray(pos_items, dtype=np.int64),
                                np.asarray(neg_items, dtype=np.int64)])
        users = np.asarray(users, dtype=np.int64)
        return self._tables_l2_batch(
            [(self.user_factors, users), (self.item_factors, items),
             (self.user_bias, users), (self.item_bias, items)], weight)

"""Deep Matrix Factorization baseline (Xue et al., IJCAI 2017).

Two MLP towers project the user's interaction profile (their row of the
interaction matrix) and the item's profile (its column) into a shared
space; the score is the cosine similarity. Profiles come from the target
behavior's interaction matrix, as in the original single-behavior setting;
both stay CSR, and a batch makes only its own rows dense.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.models.base import Recommender
from repro.nn.layers import MLP
from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.sparse import dense_row_blocks


class DMF(Recommender):
    """Deep matrix factorization with cosine matching."""

    name = "DMF"

    def __init__(self, dataset: InteractionDataset, embedding_dim: int = 16,
                 hidden_dim: int = 32, seed: int = 0):
        super().__init__(dataset.num_users, dataset.num_items)
        rng = np.random.default_rng(seed)
        matrix = dataset.graph().adjacency(dataset.target_behavior).matrix
        self._user_profiles = matrix              # (I, J) CSR
        self._item_profiles = matrix.T.tocsr()    # (J, I) CSR
        self.user_tower = MLP([self.num_items, hidden_dim, embedding_dim],
                              out_activation="identity", rng=rng)
        self.item_tower = MLP([self.num_users, hidden_dim, embedding_dim],
                              out_activation="identity", rng=rng)

    def _user_rows(self, users: np.ndarray) -> Tensor:
        return Tensor(self._user_profiles[
            np.asarray(users, dtype=np.int64)].toarray())

    def _cosine(self, user_rows: Tensor, items: np.ndarray) -> Tensor:
        items = np.asarray(items, dtype=np.int64)
        u = self.user_tower(user_rows)
        v = self.item_tower(Tensor(self._item_profiles[items].toarray()))
        u = F.l2_normalize(u, axis=-1)
        v = F.l2_normalize(v, axis=-1)
        return (u * v).sum(axis=1)

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self._cosine(self._user_rows(users), items)

    def batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                     neg_items: np.ndarray) -> tuple[Tensor, Tensor]:
        """Both sides read one dense copy of the step's user rows; each
        side still runs its own user-tower pass, so the gradients sum as
        they did when each side made its rows dense."""
        user_rows = self._user_rows(users)
        return (self._cosine(user_rows, pos_items),
                self._cosine(user_rows, neg_items))

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Scores the pairs in blocks: one pair makes a user row and an
        item row dense."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        pair_bytes = ((self.num_users + self.num_items)
                      * self._user_profiles.dtype.itemsize)
        with no_grad():
            return np.concatenate([
                self.score_tensor(users[start:stop], items[start:stop]).data
                for start, stop in dense_row_blocks(users.size, pair_bytes)])

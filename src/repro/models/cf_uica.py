"""CF-UIcA baseline (Du et al., AAAI 2018).

User–Item Co-Autoregression: the score of (u, i) combines two
autoregressive conditionals — over the user's item history and over the
item's user history — so collaborative signal flows along both axes:

``score(u, i) = V_i · tanh(c + Σ_{j∈hist(u)\\{i}} W_j)
              + U_u · tanh(d + Σ_{v∈hist(i)\\{u}} Z_v)``.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.models.base import Recommender
from repro.models.nade import autoregressive_hidden
from repro.nn import init as init_schemes
from repro.nn.module import Parameter
from repro.tensor import Tensor


class CFUIcA(Recommender):
    """Co-autoregressive collaborative filtering."""

    name = "CF-UIcA"

    def __init__(self, dataset: InteractionDataset, hidden_dim: int = 32,
                 seed: int = 0):
        super().__init__(dataset.num_users, dataset.num_items)
        rng = np.random.default_rng(seed)
        graph = dataset.graph()
        self._user_histories: list[np.ndarray] = [
            graph.user_items(dataset.target_behavior, u) for u in range(self.num_users)
        ]
        matrix_t = graph.adjacency(dataset.target_behavior).matrix.T.tocsr()
        self._item_histories: list[np.ndarray] = [
            matrix_t.indices[matrix_t.indptr[i]:matrix_t.indptr[i + 1]]
            for i in range(self.num_items)
        ]
        # user-axis autoregression parameters
        self.w_item = Parameter(
            init_schemes.normal((self.num_items, hidden_dim), rng, std=0.05), name="W")
        self.c_user = Parameter(np.zeros(hidden_dim), name="c")
        self.v_item = Parameter(
            init_schemes.normal((self.num_items, hidden_dim), rng, std=0.05), name="V")
        # item-axis autoregression parameters
        self.z_user = Parameter(
            init_schemes.normal((self.num_users, hidden_dim), rng, std=0.05), name="Z")
        self.d_item = Parameter(np.zeros(hidden_dim), name="d")
        self.u_user = Parameter(
            init_schemes.normal((self.num_users, hidden_dim), rng, std=0.05), name="U")
        self.bias = Parameter(np.zeros(self.num_items), name="b")

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        user_hidden = autoregressive_hidden(
            self.w_item, self.c_user, self._user_histories, users, items)
        item_hidden = autoregressive_hidden(
            self.z_user, self.d_item, self._item_histories, items, users)
        user_term = (user_hidden * self.v_item.gather_rows(items)).sum(axis=1)
        item_term = (item_hidden * self.u_user.gather_rows(users)).sum(axis=1)
        return user_term + item_term + self.b_lookup(items)

    def b_lookup(self, items: np.ndarray) -> Tensor:
        return self.bias.gather_rows(items)

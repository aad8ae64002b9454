"""CF-NADE-style baseline (Zheng et al., ICML 2016).

A neural autoregressive model over each user's item set: the probability of
the next item conditions on the already-observed items through a shared
hidden state ``h(obs) = tanh(c + Σ_{j∈obs} W_j)`` and per-item output
weights, with the parameter-sharing strategy of CF-NADE. For implicit
feedback we train the conditional ``P(item | subset of the user's other
items)`` with a sampled softmax-free pairwise surrogate — the held-out
positive must outscore sampled negatives — which preserves NADE's
autoregressive structure while fitting the common evaluation protocol.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.models.base import Recommender
from repro.nn import init as init_schemes
from repro.nn.module import Parameter
from repro.tensor import Tensor
from repro.tensor.sparse import SparseAdjacency


class NADE(Recommender):
    """Autoregressive scorer: V_i · tanh(c + Σ_{j∈hist(u)\\{i}} W_j) + b_i."""

    name = "NADE"

    def __init__(self, dataset: InteractionDataset, hidden_dim: int = 32,
                 seed: int = 0):
        super().__init__(dataset.num_users, dataset.num_items)
        rng = np.random.default_rng(seed)
        graph = dataset.graph()
        self._histories: list[np.ndarray] = [
            graph.user_items(dataset.target_behavior, u) for u in range(self.num_users)
        ]
        self.w_in = Parameter(
            init_schemes.normal((self.num_items, hidden_dim), rng, std=0.05), name="W")
        self.c = Parameter(np.zeros(hidden_dim), name="c")
        self.v_out = Parameter(
            init_schemes.normal((self.num_items, hidden_dim), rng, std=0.05), name="V")
        self.b_out = Parameter(np.zeros(self.num_items), name="b")
        self._rng = rng

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        hidden = autoregressive_hidden(self.w_in, self.c, self._histories,
                                       users, exclude=items)
        v = self.v_out.gather_rows(items)
        return (hidden * v).sum(axis=1) + self.b_out.gather_rows(items)


def autoregressive_hidden(table: Parameter, bias: Parameter,
                          histories: list[np.ndarray], anchors: np.ndarray,
                          exclude: np.ndarray) -> Tensor:
    """``tanh(bias + Σ table[history])`` per anchor, leaving out its partner.

    Excluding the predicted partner (``exclude[row]``) from its own
    conditioning set is what makes the model autoregressive rather than
    autoencoding. NADE conditions a user on their items; CF-UIcA also
    conditions an item on its users.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    picked = []
    for row, anchor in enumerate(anchors):
        history = histories[int(anchor)]
        picked.append(history[history != exclude[row]])
    lengths = [history.size for history in picked]
    if sum(lengths) == 0:
        return (bias * Tensor(np.ones((anchors.size, 1)))).tanh()
    rows = table.gather_rows(np.concatenate(picked))
    # segment-sum the flattened history rows back per anchor
    segment = np.repeat(np.arange(anchors.size), lengths)
    scatter = sp.csr_matrix(
        (np.ones(segment.size), (segment, np.arange(segment.size))),
        shape=(anchors.size, segment.size),
    )
    return (SparseAdjacency(scatter).matmul(rows) + bias).tanh()

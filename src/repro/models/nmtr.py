"""NMTR baseline (Gao et al., ICDE 2019).

Neural Multi-Task Recommendation: one shared embedding layer; one NCF-style
interaction function per behavior type; predictions are *cascaded* along
the behavior funnel — the logit for behavior k adds the logit for behavior
k−1, encoding "later behaviors presuppose earlier ones". Training is
multi-task: a pairwise loss per behavior, weighted and summed — its batch
source (:class:`~repro.train.sources.MultiBehaviorSource`) samples one
batch per behavior each step.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.models.base import Recommender
from repro.nn.layers import Embedding, Linear
from repro.nn.module import ModuleList
from repro.tensor import Tensor
from repro.train.sources import MultiBehaviorSource
from repro.train.trainer import TrainConfig


class NMTR(Recommender):
    """Cascaded multi-task NCF over behavior types."""

    name = "NMTR"

    def __init__(self, dataset: InteractionDataset, embedding_dim: int = 16,
                 seed: int = 0, task_weights: list[float] | None = None):
        super().__init__(dataset.num_users, dataset.num_items)
        rng = np.random.default_rng(seed)
        self.behavior_names = dataset.behavior_names
        self.target_behavior = dataset.target_behavior
        self._target_index = self.behavior_names.index(self.target_behavior)
        self.user_embeddings = Embedding(self.num_users, embedding_dim, rng=rng)
        self.item_embeddings = Embedding(self.num_items, embedding_dim, rng=rng)
        # per-behavior GMF-style interaction head
        self.heads = ModuleList([
            Linear(embedding_dim, 1, rng=rng) for _ in self.behavior_names
        ])
        if task_weights is None:
            task_weights = [1.0] * len(self.behavior_names)
        if len(task_weights) != len(self.behavior_names):
            raise ValueError("task_weights must match the number of behaviors")
        self.task_weights = list(task_weights)

    # ------------------------------------------------------------------
    def _cascaded_logits(self, users: np.ndarray, items: np.ndarray,
                         upto: int) -> Tensor:
        """Logit of behavior ``upto`` = Σ_{k ≤ upto} head_k(p ⊙ q)."""
        p = self.user_embeddings(users)
        q = self.item_embeddings(items)
        product = p * q
        total: Tensor | None = None
        for k in range(upto + 1):
            logit = self.heads[k](product).squeeze(-1)
            total = logit if total is None else total + logit
        return total

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        return self._cascaded_logits(np.asarray(users), np.asarray(items),
                                     self._target_index)

    def batch_source(self, train: InteractionDataset, config: TrainConfig):
        """Multi-task pairwise training across all behavior types."""
        return MultiBehaviorSource(self, train, config, self.behavior_names,
                                   self.task_weights, self._cascaded_logits)

"""NMTR baseline (Gao et al., ICDE 2019).

Neural Multi-Task Recommendation: one shared embedding layer; one NCF-style
interaction function per behavior type; predictions are *cascaded* along
the behavior funnel — the logit for behavior k adds the logit for behavior
k−1, encoding "later behaviors presuppose earlier ones". Training is
multi-task: a pairwise loss per behavior, weighted and summed, so the
:meth:`fit` is overridden to sample batches per behavior.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.graph.sampling import NegativeSampler, sample_pairwise_batch
from repro.models.base import Recommender
from repro.nn.layers import Embedding, Linear
from repro.nn.losses import l2_regularization, pairwise_hinge_loss
from repro.nn.module import ModuleList
from repro.nn.optim import Adam
from repro.nn.schedulers import ExponentialDecay
from repro.tensor import Tensor
from repro.train.callbacks import HistoryRecorder
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

    # ------------------------------------------------------------------
    def fit(self, train: InteractionDataset, config: TrainConfig | None = None,
            eval_fn=None, resume_from: str | None = None) -> HistoryRecorder:
        """Multi-task pairwise training across all behavior types."""
        config = config or TrainConfig()
        self._refuse_trainer_settings(config, resume_from)
        rng = np.random.default_rng(config.seed)
        graph = train.graph()
        samplers = {b: NegativeSampler(graph, b) for b in self.behavior_names}
        eligible = {
            b: np.flatnonzero(graph.user_degree(b) > 0) for b in self.behavior_names
        }
        optimizer = Adam(self.parameters(), lr=config.lr)
        scheduler = ExponentialDecay(optimizer, rate=config.lr_decay)
        history = HistoryRecorder()

        self.train()
        for epoch in range(config.epochs):
            total_loss = 0.0
            count = 0
            for _ in range(config.steps_per_epoch):
                loss: Tensor | None = None
                for k, behavior in enumerate(self.behavior_names):
                    if eligible[behavior].size == 0:
                        continue
                    batch = sample_pairwise_batch(
                        graph, behavior, samplers[behavior],
                        config.batch_users, config.per_user, rng,
                        eligible_users=eligible[behavior],
                    )
                    if len(batch) == 0:
                        continue
                    pos = self._cascaded_logits(batch.users, batch.pos_items, k)
                    neg = self._cascaded_logits(batch.users, batch.neg_items, k)
                    task_loss = pairwise_hinge_loss(pos, neg, margin=config.margin)
                    task_loss = task_loss * self.task_weights[k]
                    loss = task_loss if loss is None else loss + task_loss
                    count += len(batch)
                if loss is None:
                    continue
                loss = loss + l2_regularization(self.parameters(), config.l2_weight)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                total_loss += float(loss.data)
            lr = scheduler.step()
            record = {"epoch": epoch, "loss": total_loss / max(count, 1), "lr": lr}
            if eval_fn is not None:
                self.eval()
                record["metric"] = float(eval_fn())
                self.train()
            history.record(**record)
        self.eval()
        return history

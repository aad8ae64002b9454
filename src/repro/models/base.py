"""Shared recommender interface.

Every model — GNMR and all Table-II baselines — subclasses
:class:`Recommender`, so the experiment harness can train and evaluate them
uniformly:

* :meth:`Recommender.fit` — pairwise training via :class:`repro.train.Trainer`
  (reconstruction-style models override ``fit`` entirely);
* :meth:`Recommender.score` — numpy scoring for evaluation;
* :meth:`Recommender.score_tensor` — differentiable scoring for training;
* :meth:`Recommender.recommend` — top-N item lists for applications.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad
from repro.train.callbacks import HistoryRecorder
from repro.train.trainer import TrainConfig, Trainer


class Recommender(Module):
    """Base class for all recommenders in the reproduction."""

    #: human-readable name used in result tables
    name: str = "recommender"

    def __init__(self, num_users: int, num_items: int):
        super().__init__()
        self.num_users = int(num_users)
        self.num_items = int(num_items)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Differentiable scores for parallel (user, item) index arrays."""
        raise NotImplementedError

    def batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                     neg_items: np.ndarray) -> tuple[Tensor, Tensor]:
        """Score positive and negative pairs for one training batch.

        Graph models override this to share one propagation pass between the
        positive and negative sides.
        """
        return self.score_tensor(users, pos_items), self.score_tensor(users, neg_items)

    def extract_block(self, users: np.ndarray, pos_items: np.ndarray,
                      neg_items: np.ndarray, *, fanout=10,
                      rng: np.random.Generator | None = None):
        """Parameter-free sampled-propagation block for one batch.

        The mini-batch training pipeline (:mod:`repro.train.pipeline`)
        calls this inline or on a background worker — extraction reads
        only the graph structure and the rng, never the parameters, so it
        can run while the optimizer is still applying the previous step.
        Graph models (GNMR, NGCF) return a fanout-capped layered block
        consumed by :meth:`block_batch_scores`, making the step cost a
        function of batch size and fanout; the default returns ``None`` —
        non-graph models have no propagation to sample and nothing to
        prefetch beyond the batch itself.
        """
        del users, pos_items, neg_items, fanout, rng
        return None

    def block_batch_scores(self, users: np.ndarray, pos_items: np.ndarray,
                           neg_items: np.ndarray, block=None,
                           ) -> tuple[Tensor, Tensor]:
        """Score one batch over a block prefetched by :meth:`extract_block`.

        The fallback for ``block=None`` is the dense :meth:`batch_scores`
        — a non-graph model's forward already touches only batch-sized
        activations. Embedding-table baselines (BiasMF, the NCF family)
        override it to gather with the row-sparse ``embedding_rows`` op,
        so their optimizer work scales with the batch too.
        """
        if block is not None:
            raise NotImplementedError(
                f"{type(self).__name__} returned a block from extract_block "
                "but does not implement block_batch_scores")
        return self.batch_scores(users, pos_items, neg_items)

    def l2_batch(self, users: np.ndarray, pos_items: np.ndarray,
                 neg_items: np.ndarray, weight: float) -> Tensor:
        """Batch-local λ‖Θ_batch‖² for the mini-batch training path.

        Models with embedding tables override this (via
        :func:`repro.nn.losses.l2_regularization_batch`) to penalize only
        the rows the step touched, keeping the regularizer's gradient
        row-sparse. The fallback penalizes every parameter — correct for
        models whose parameters are all dense-touched each step.
        """
        del users, pos_items, neg_items
        from repro.nn.losses import l2_regularization

        return l2_regularization(self.parameters(), weight)

    def _tables_l2_batch(self, entries: list[tuple[Tensor, np.ndarray]],
                         weight: float) -> Tensor:
        """Batch-local L2 over ``(table, touched_rows)`` pairs.

        Penalizes each table's touched rows via row-sparse gathers, plus
        every parameter *not* listed as a table densely (layer weights are
        touched each step regardless of sampling). A table is a raw
        ``Parameter`` or an ``nn.Embedding``, whose weight is what the
        dense sweep leaves out.
        """
        from repro.nn.losses import l2_regularization_batch

        table_params = [p for table, _ in entries
                        for p in ([table] if isinstance(table, Tensor)
                                  else table.parameters())]
        dense = [p for p in self.parameters()
                 if not any(p is q for q in table_params)]
        return l2_regularization_batch(entries, dense, weight)

    def _embedding_l2_batch(self, user_table, item_table,
                            users: np.ndarray, pos_items: np.ndarray,
                            neg_items: np.ndarray, weight: float) -> Tensor:
        """Shared ``l2_batch`` recipe for two-table embedding models."""
        return self._tables_l2_batch(
            [(user_table, users),
             (item_table, np.concatenate([pos_items, neg_items]))], weight)

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Inference-mode scores (no autograd graph, so no dropout either)."""
        with no_grad():
            return self.score_tensor(np.asarray(users), np.asarray(items)).data

    def on_step_end(self) -> None:
        """Hook called after each optimizer step (cache invalidation)."""

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters; what was cached from the old ones is dropped."""
        super().load_state_dict(state)
        self.on_step_end()

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, train: InteractionDataset, config: TrainConfig | None = None,
            eval_fn=None, resume_from: str | None = None) -> HistoryRecorder:
        """Train with the paper's pairwise objective; returns history.

        ``resume_from`` continues bit-exactly from a training-state file a
        previous run wrote via ``TrainConfig.save_state``.
        """
        config = config or TrainConfig()
        trainer = Trainer(self, train, config, eval_fn=eval_fn)
        return trainer.run(resume_from=resume_from)

    def _refuse_trainer_settings(self, config: TrainConfig,
                                 resume_from: str | None) -> None:
        """For the models that override :meth:`fit` with their own loop:
        what only :class:`Trainer` implements is refused, not ignored."""
        for setting, given in (("resume_from", resume_from is not None),
                               ("save_state", config.save_state is not None)):
            if given:
                raise ValueError(
                    f"{self.name} trains with its own loop, not through "
                    f"Trainer, which is what implements {setting} — "
                    "train it without that setting")

    # ------------------------------------------------------------------
    # serving API
    # ------------------------------------------------------------------
    def serving_embeddings(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(user_matrix, item_matrix) whose inner product is ``score``.

        Factored models (GNMR, NGCF) override this so the serving layer
        can snapshot their embedding tables and rank the full catalog with
        one blocked matmul. ``None`` (the default) means the model has no
        such form — serving falls back to brute-force pairwise scoring.
        """
        return None

    def cold_user_embeddings(self, users) -> np.ndarray | None:
        """Fresh serving rows for a few users, or ``None`` if unsupported.

        Graph models (GNMR, NGCF) override this with single-seed layered
        extraction so the serving tier can embed users absent from the
        current snapshot on demand instead of waiting for the next one.
        The contract: the returned (U, D) rows match those users' rows in
        :meth:`serving_embeddings` recomputed from the current parameters
        to within a float64 ulp (same ranking).
        """
        return None

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------
    def recommend(self, user: int, top_n: int = 10,
                  exclude_items: set[int] | None = None,
                  candidate_items: np.ndarray | None = None) -> list[tuple[int, float]]:
        """Top-N (item, score) recommendations for one user.

        Parameters
        ----------
        exclude_items:
            Items to filter out (typically the user's training positives).
        candidate_items:
            Restrict scoring to these items (defaults to the full catalog).
        """
        if candidate_items is None:
            candidate_items = np.arange(self.num_items)
        candidate_items = np.asarray(candidate_items, dtype=np.int64)
        if exclude_items:
            mask = np.array([i not in exclude_items for i in candidate_items])
            candidate_items = candidate_items[mask]
        if candidate_items.size == 0:
            return []
        users = np.full(candidate_items.size, int(user), dtype=np.int64)
        scores = self.score(users, candidate_items)
        order = np.argsort(-scores)[:top_n]
        return [(int(candidate_items[i]), float(scores[i])) for i in order]

"""AutoRec baseline (Sedhain et al., WWW 2015).

User-based AutoRec: an autoencoder reconstructs each user's target-behavior
interaction vector; the reconstructed value at item i is the preference
score. Trained with the reconstruction objective (not the pairwise loss),
so :meth:`fit` is overridden.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.models.base import Recommender
from repro.nn.layers import Linear
from repro.nn.optim import Adam
from repro.nn.losses import l2_regularization
from repro.tensor import Tensor, no_grad
from repro.train.callbacks import HistoryRecorder
from repro.train.trainer import TrainConfig


class AutoRec(Recommender):
    """U-AutoRec: h(x) = W' σ(W x + b) + b' with MSE reconstruction."""

    name = "AutoRec"

    def __init__(self, dataset: InteractionDataset, hidden_dim: int = 32,
                 seed: int = 0):
        super().__init__(dataset.num_users, dataset.num_items)
        rng = np.random.default_rng(seed)
        matrix = dataset.graph().adjacency(dataset.target_behavior).to_dense()
        self._profiles = matrix
        self.encoder = Linear(self.num_items, hidden_dim, rng=rng)
        self.decoder = Linear(hidden_dim, self.num_items, rng=rng)
        self._recon_cache: np.ndarray | None = None

    def forward(self, x: Tensor) -> Tensor:
        return self.decoder(self.encoder(x).sigmoid())

    # ------------------------------------------------------------------
    def fit(self, train: InteractionDataset, config: TrainConfig | None = None,
            eval_fn=None, resume_from: str | None = None) -> HistoryRecorder:
        """Reconstruction training over user profiles."""
        config = config or TrainConfig()
        self._refuse_trainer_settings(config, resume_from)
        rng = np.random.default_rng(config.seed)
        optimizer = Adam(self.parameters(), lr=config.lr)
        history = HistoryRecorder()
        batch = max(8, config.batch_users)
        self.train()
        for epoch in range(config.epochs):
            order = rng.permutation(self.num_users)
            total = 0.0
            for start in range(0, self.num_users, batch):
                rows = order[start:start + batch]
                x = Tensor(self._profiles[rows])
                recon = self(x)
                diff = recon - x
                # implicit-feedback weighting: positives weighted higher
                weights = Tensor(1.0 + 4.0 * self._profiles[rows])
                loss = (weights * diff * diff).mean()
                loss = loss + l2_regularization(self.parameters(), config.l2_weight)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                total += float(loss.data) * len(rows)
            self._recon_cache = None
            record = {"epoch": epoch, "loss": total / self.num_users}
            if eval_fn is not None:
                self.eval()
                record["metric"] = float(eval_fn())
                self.train()
            history.record(**record)
        self.eval()
        self._recon_cache = None
        return history

    # ------------------------------------------------------------------
    def _reconstruction(self) -> np.ndarray:
        if self._recon_cache is None:
            with no_grad():
                self._recon_cache = self(Tensor(self._profiles)).data
        return self._recon_cache

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        recon = self(Tensor(self._profiles[users]))
        return recon[np.arange(users.size), items]

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return self._reconstruction()[users, items]

    def on_step_end(self) -> None:
        self._recon_cache = None

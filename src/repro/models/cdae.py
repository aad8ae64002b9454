"""CDAE baseline (Wu et al., WSDM 2016).

Collaborative Denoising Auto-Encoder: a user-specific input node is added
to a denoising autoencoder over the user's interaction vector —
``h = σ(Wᵀ x̃ + V_u + b)``, reconstruction ``ŷ = W' h + b'`` — trained on
corrupted inputs with implicit-feedback weighting.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.models.base import Recommender
from repro.nn.layers import Embedding, Linear
from repro.nn.losses import l2_regularization
from repro.nn.optim import Adam
from repro.tensor import Tensor, no_grad
from repro.train.callbacks import HistoryRecorder
from repro.train.trainer import TrainConfig


class CDAE(Recommender):
    """Denoising autoencoder with a per-user latent input node."""

    name = "CDAE"

    def __init__(self, dataset: InteractionDataset, hidden_dim: int = 32,
                 corruption: float = 0.3, seed: int = 0):
        super().__init__(dataset.num_users, dataset.num_items)
        if not 0.0 <= corruption < 1.0:
            raise ValueError("corruption must be in [0, 1)")
        rng = np.random.default_rng(seed)
        self._rng = rng
        self.corruption = corruption
        matrix = dataset.graph().adjacency(dataset.target_behavior).to_dense()
        self._profiles = matrix
        self.encoder = Linear(self.num_items, hidden_dim, rng=rng)
        self.user_node = Embedding(self.num_users, hidden_dim, rng=rng)
        self.decoder = Linear(hidden_dim, self.num_items, rng=rng)
        self._recon_cache: np.ndarray | None = None

    def forward(self, x: Tensor, users: np.ndarray) -> Tensor:
        hidden = (self.encoder(x) + self.user_node(users)).sigmoid()
        return self.decoder(hidden)

    # ------------------------------------------------------------------
    def fit(self, train: InteractionDataset, config: TrainConfig | None = None,
            eval_fn=None, resume_from: str | None = None) -> HistoryRecorder:
        """Denoising reconstruction training."""
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
                clean = self._profiles[rows]
                mask = rng.random(clean.shape) >= self.corruption
                corrupted = clean * mask / (1.0 - self.corruption)
                recon = self(Tensor(corrupted), rows)
                diff = recon - Tensor(clean)
                weights = Tensor(1.0 + 4.0 * clean)
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
                users = np.arange(self.num_users)
                self._recon_cache = self(Tensor(self._profiles), users).data
        return self._recon_cache

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        recon = self(Tensor(self._profiles[users]), users)
        return recon[np.arange(users.size), items]

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return self._reconstruction()[users, items]

    def on_step_end(self) -> None:
        self._recon_cache = None

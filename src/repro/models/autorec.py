"""AutoRec baseline (Sedhain et al., WWW 2015).

User-based AutoRec: an autoencoder reconstructs each user's target-behavior
interaction vector; the reconstructed value at item i is the preference
score. Trained with the reconstruction objective (not the pairwise loss):
its batch source is a :class:`~repro.train.sources.ProfileSource`.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.models.base import Recommender
from repro.nn.layers import Linear
from repro.tensor import Tensor, no_grad
from repro.train.sources import ProfileSource
from repro.train.trainer import TrainConfig


class ProfileAutoencoder(Recommender):
    """The autoencoder baselines' shared body (AutoRec, CDAE): each user's
    target-behavior profile row is reconstructed by ``forward(x, users)``,
    and the reconstruction of the clean row is the score."""

    #: share of each training input's cells dropped (denoising)
    corruption = 0.0

    def __init__(self, dataset: InteractionDataset):
        super().__init__(dataset.num_users, dataset.num_items)
        self._built_on = dataset
        self._profiles = _target_profiles(dataset)
        self._recon_cache: np.ndarray | None = None

    def batch_source(self, train: InteractionDataset, config: TrainConfig):
        """Reconstruction of ``train``'s profile rows, ``max(8,
        batch_users)`` a step, positives weighted 5×, plus L2."""
        if (train.num_users, train.num_items) != (self.num_users,
                                                  self.num_items):
            raise ValueError(
                f"{self.name} was built for {self.num_users} users x "
                f"{self.num_items} items; cannot train on {train.name!r} "
                f"({train.num_users} x {train.num_items})")
        # the build dataset's matrix is not made a second time
        profiles = (self._profiles if train is self._built_on
                    else _target_profiles(train))
        return ProfileSource(
            profiles, max(8, config.batch_users),
            np.random.default_rng(config.seed), self,
            weighted=True, corruption=self.corruption,
            parameters=self.parameters(), l2_weight=config.l2_weight)

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


def _target_profiles(dataset: InteractionDataset) -> np.ndarray:
    """The dense users × items 0/1 matrix of the target behavior."""
    return dataset.graph().adjacency(dataset.target_behavior).to_dense()


class AutoRec(ProfileAutoencoder):
    """U-AutoRec: h(x) = W' σ(W x + b) + b' with MSE reconstruction."""

    name = "AutoRec"

    def __init__(self, dataset: InteractionDataset, hidden_dim: int = 32,
                 seed: int = 0):
        super().__init__(dataset)
        rng = np.random.default_rng(seed)
        self.encoder = Linear(self.num_items, hidden_dim, rng=rng)
        self.decoder = Linear(hidden_dim, self.num_items, rng=rng)

    def forward(self, x: Tensor, users: np.ndarray | None = None) -> Tensor:
        return self.decoder(self.encoder(x).sigmoid())

"""CDAE baseline (Wu et al., WSDM 2016).

Collaborative Denoising Auto-Encoder: a user-specific input node is added
to a denoising autoencoder over the user's interaction vector —
``h = σ(Wᵀ x̃ + V_u + b)``, reconstruction ``ŷ = W' h + b'`` — trained on
corrupted inputs with implicit-feedback weighting.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.models.autorec import ProfileAutoencoder
from repro.nn.layers import Embedding, Linear
from repro.tensor import Tensor


class CDAE(ProfileAutoencoder):
    """Denoising autoencoder with a per-user latent input node."""

    name = "CDAE"

    def __init__(self, dataset: InteractionDataset, hidden_dim: int = 32,
                 corruption: float = 0.3, seed: int = 0):
        super().__init__(dataset)
        if not 0.0 <= corruption < 1.0:
            raise ValueError("corruption must be in [0, 1)")
        rng = np.random.default_rng(seed)
        self.corruption = corruption
        self.encoder = Linear(self.num_items, hidden_dim, rng=rng)
        self.user_node = Embedding(self.num_users, hidden_dim, rng=rng)
        self.decoder = Linear(hidden_dim, self.num_items, rng=rng)

    def forward(self, x: Tensor, users: np.ndarray) -> Tensor:
        hidden = (self.encoder(x) + self.user_node(users)).sigmoid()
        return self.decoder(hidden)

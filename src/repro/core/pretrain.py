"""Autoencoder pre-training of the order-0 node embeddings (paper §III-A).

The paper initializes H⁰ "by leveraging Autoencoder-based pre-training
scheme [AutoRec] for generating low-dimensional representations based on
multi-behavior interaction tensor X". We reproduce that: a one-hidden-layer
autoencoder compresses each user's (behavior-weighted) interaction profile
over items to d dimensions, and symmetrically each item's profile over
users; the encoder outputs seed the embedding tables.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.tensor import Tensor, get_default_dtype, no_grad
from repro.tensor.sparse import dense_row_blocks
from repro.train.sources import ProfileSource
from repro.train.trainer import TrainConfig, Trainer


class AutoencoderPretrainer(Module):
    """One-hidden-layer autoencoder over ``profiles``: x → σ(Wx+b) → W'h+b'.

    Trained with MSE on the full profile vectors (they are dense binary
    aggregates, so full reconstruction is the AutoRec objective with
    observed-everything weighting — appropriate for implicit data).
    ``profiles`` is a CSR matrix; a step or an encoding block makes only
    its own rows dense.
    """

    def __init__(self, profiles: sp.csr_matrix, embedding_dim: int,
                 rng: np.random.Generator, batch_size: int = 64):
        super().__init__()
        self.profiles, self.batch_size = profiles, batch_size
        self._rng = rng
        self.encoder = Linear(profiles.shape[1], embedding_dim, rng=rng)
        self.decoder = Linear(embedding_dim, profiles.shape[1], rng=rng)

    def encode(self, x: Tensor) -> Tensor:
        return self.encoder(x).sigmoid()

    def forward(self, x: Tensor) -> Tensor:
        return self.decoder(self.encode(x))

    def batch_source(self, train, config) -> ProfileSource:
        """``batch_size`` rows a step, no L2, permuted by the rng that
        initialised the layers; ``train`` is not read."""
        return ProfileSource(self.profiles, self.batch_size, self._rng,
                             lambda x, rows: self(x))

    def embeddings(self) -> np.ndarray:
        """Encoder outputs, centered and variance-normalized for use as H⁰."""
        num_rows, width = self.profiles.shape
        with no_grad():
            codes = np.concatenate([
                self.encode(Tensor(self.profiles[start:stop].toarray())).data
                for start, stop in dense_row_blocks(
                    num_rows, width * self.profiles.dtype.itemsize)])
        codes = codes - codes.mean(axis=0, keepdims=True)
        std = codes.std()
        if std > 1e-8:
            codes = codes / (std * 10.0)  # small init scale, like xavier
        return codes


def _behavior_weighted_profiles(dataset: InteractionDataset,
                                ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Compress X ∈ {0,1}^{I×J×K} to user (I×J) and item (J×I) CSR profiles.

    Behaviors are weighted geometrically with the target behavior heaviest,
    so the profile keeps multi-behavior information in a single matrix.
    """
    graph = dataset.graph()
    num_behaviors = dataset.num_behaviors
    user_profiles = sp.csr_matrix((dataset.num_users, dataset.num_items),
                                  dtype=get_default_dtype())
    for k, behavior in enumerate(dataset.behavior_names):
        weight = 1.0 if behavior == dataset.target_behavior else 0.5 ** (num_behaviors - k)
        user_profiles = user_profiles + weight * graph.adjacency(behavior).matrix
    user_profiles = user_profiles.astype(get_default_dtype(), copy=False)
    return user_profiles, user_profiles.T.tocsr()


def pretrain_embeddings(dataset: InteractionDataset, embedding_dim: int,
                        epochs: int = 30, lr: float = 1e-2,
                        batch_size: int = 64,
                        seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Produce (user_embeddings, item_embeddings) seeds for GNMR.

    Returns arrays of shape (I, d) and (J, d).
    """
    rng = np.random.default_rng(seed)
    # pre-training runs at a constant learning rate
    config = TrainConfig(epochs=epochs, lr=lr, lr_decay=1.0, seed=seed)
    codes = []
    for profiles in _behavior_weighted_profiles(dataset):
        autoencoder = AutoencoderPretrainer(profiles, embedding_dim, rng,
                                            batch_size)
        Trainer(autoencoder, dataset, config).run()
        codes.append(autoencoder.embeddings())
    return tuple(codes)

"""The dense profile path AutoRec, CDAE, DMF and pre-training had before
their profiles stayed CSR.

Moved here when those models stopped building whole ``(users, items)``
matrices: AutoRec and CDAE sliced their training rows from a dense target
matrix and scored from one cached reconstruction of every user, DMF kept
the dense matrix and a dense transposed copy, and pre-training summed one
dense matrix per behaviour. The CSR versions promise the *same bits* —
loss histories, scores and embeddings — wherever one dense block holds
every row, and this is the reference that promise is tested against
(``tests/models/test_dense_profile_oracle.py``). Test-only: nothing under
``src/`` imports it.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.pretrain import AutoencoderPretrainer
from repro.data.dataset import InteractionDataset
from repro.models import CDAE, DMF, AutoRec
from repro.models.base import Recommender
from repro.tensor import Tensor, functional as F, get_default_dtype, no_grad
from repro.train.sources import ProfileSource
from repro.train.trainer import TrainConfig, Trainer


def target_profiles(dataset: InteractionDataset) -> np.ndarray:
    """The dense users × items 0/1 matrix of the target behavior."""
    return dataset.graph().adjacency(dataset.target_behavior).to_dense()


def behavior_weighted_profiles(dataset: InteractionDataset,
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Compress X ∈ {0,1}^{I×J×K} to user (I×J) and item (J×I) profiles."""
    graph = dataset.graph()
    num_behaviors = dataset.num_behaviors
    user_profiles = np.zeros((dataset.num_users, dataset.num_items),
                             dtype=get_default_dtype())
    for k, behavior in enumerate(dataset.behavior_names):
        weight = 1.0 if behavior == dataset.target_behavior else 0.5 ** (num_behaviors - k)
        user_profiles += weight * graph.adjacency(behavior).to_dense()
    return user_profiles, user_profiles.T.copy()


class DenseProfileSource(ProfileSource):
    """:class:`ProfileSource` over a dense matrix: a step's rows are
    sliced from it."""

    def batches(self, start_step: int):
        for step in itertools.count(start_step):
            offset = step % self.steps_per_epoch
            if offset == 0:
                self._order = self._rng.permutation(self._profiles.shape[0])
            start = offset * self._rows_per_step
            rows = self._order[start:start + self._rows_per_step]
            clean = inputs = self._profiles[rows]
            if self._corruption:
                mask = self._rng.random(clean.shape) >= self._corruption
                inputs = clean * mask / (1.0 - self._corruption)
            yield rows, clean, inputs


class _DenseProfileAutoencoder:
    """AutoRec / CDAE over the dense target matrix: a score reads one
    reconstruction of every user, cached until the next step."""

    def __init__(self, dataset: InteractionDataset, **kwargs):
        super().__init__(dataset, **kwargs)
        self._profiles = target_profiles(dataset)
        self._recon_cache: np.ndarray | None = None

    def batch_source(self, train: InteractionDataset, config: TrainConfig):
        return DenseProfileSource(
            target_profiles(train), max(8, config.batch_users),
            np.random.default_rng(config.seed), self,
            weighted=True, corruption=self.corruption,
            parameters=self.parameters(), l2_weight=config.l2_weight)

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        if self._recon_cache is None:
            with no_grad():
                self._recon_cache = self(Tensor(self._profiles),
                                         np.arange(self.num_users)).data
        return self._recon_cache[np.asarray(users, dtype=np.int64),
                                 np.asarray(items, dtype=np.int64)]

    def on_step_end(self) -> None:
        self._recon_cache = None


class DenseAutoRec(_DenseProfileAutoencoder, AutoRec):
    pass


class DenseCDAE(_DenseProfileAutoencoder, CDAE):
    pass


class DenseDMF(DMF):
    """DMF over the dense matrix and its dense transpose, every pair
    scored in one call."""

    def __init__(self, dataset: InteractionDataset, **kwargs):
        super().__init__(dataset, **kwargs)
        matrix = target_profiles(dataset)
        self._user_profiles = matrix
        self._item_profiles = matrix.T.copy()

    def score_tensor(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        u = self.user_tower(Tensor(self._user_profiles[users]))
        v = self.item_tower(Tensor(self._item_profiles[items]))
        u = F.l2_normalize(u, axis=-1)
        v = F.l2_normalize(v, axis=-1)
        return (u * v).sum(axis=1)

    batch_scores = Recommender.batch_scores
    score = Recommender.score


class DensePretrainer(AutoencoderPretrainer):
    """The pre-training autoencoder over a dense profile matrix, encoded
    in one pass."""

    def batch_source(self, train, config) -> DenseProfileSource:
        return DenseProfileSource(self.profiles, self.batch_size, self._rng,
                                  lambda x, rows: self(x))

    def embeddings(self) -> np.ndarray:
        with no_grad():
            codes = self.encode(Tensor(self.profiles)).data
        codes = codes - codes.mean(axis=0, keepdims=True)
        std = codes.std()
        if std > 1e-8:
            codes = codes / (std * 10.0)
        return codes


def pretrain_embeddings(dataset: InteractionDataset, embedding_dim: int,
                        epochs: int = 30, lr: float = 1e-2,
                        batch_size: int = 64, seed: int = 0, *,
                        profiles=behavior_weighted_profiles,
                        pretrainer=DensePretrainer):
    """``repro.core.pretrain_embeddings`` over the dense profiles (or over
    what ``profiles`` builds, trained by ``pretrainer``); also returns
    each side's loss history."""
    rng = np.random.default_rng(seed)
    config = TrainConfig(epochs=epochs, lr=lr, lr_decay=1.0, seed=seed)
    codes, losses = [], []
    for side in profiles(dataset):
        autoencoder = pretrainer(side, embedding_dim, rng, batch_size)
        losses.append(Trainer(autoencoder, dataset, config).run().series("loss"))
        codes.append(autoencoder.embeddings())
    return tuple(codes), losses

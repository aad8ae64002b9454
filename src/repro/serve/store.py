"""Versioned snapshots of serving embeddings.

Training mutates model parameters every optimizer step and bumps the
:class:`~repro.graph.engine.PropagationEngine` version; serving must not
re-propagate the graph per request. An :class:`EmbeddingStore` is the
model's serving embeddings (for GNMR the engine-cached multi-order
propagation, concatenated) frozen into plain numpy matrices at a chosen
serving dtype, with the engine version they were taken at and their
content hash. Which store is being served, and which earlier ones can be
restored, is :class:`~repro.serve.service.RecommendationService`'s
business.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.serve.retriever import MatrixBackend
from repro.utils.integrity import array_sha256


class SnapshotIntegrityError(ValueError):
    """A snapshot's content hash did not match the expected fingerprint."""


def model_version(model) -> int | None:
    """The model's propagation-engine version, or ``None`` without one.

    Graph models bump ``engine.version`` whenever parameters change (their
    ``on_step_end`` calls ``engine.invalidate()``), which makes it the
    natural staleness key for serving snapshots. Models without an engine
    have no observable version — their snapshots only refresh explicitly.
    """
    engine = getattr(model, "engine", None)
    if engine is None:
        return None
    return int(engine.version)


class EmbeddingStore:
    """An immutable (user_matrix, item_matrix) snapshot keyed by engine version.

    Nothing assigns ``user_matrix``, ``item_matrix``, ``version``,
    ``content_hash`` or ``source`` after construction, so the derived
    caches (:meth:`backend`, :meth:`ann_index`) never need invalidating:
    a newer snapshot is a new store with caches of its own.

    Parameters
    ----------
    user_matrix, item_matrix:
        Serving embedding tables whose inner product reproduces the
        model's score (see ``Recommender.serving_embeddings``).
    version:
        Engine version the snapshot was taken at (``None`` when the source
        model exposes no version).
    dtype:
        Serving precision of the stored tables; float32 by default —
        ranking is bandwidth-bound and the retriever re-ranks in float64.
    source:
        Human-readable provenance label (model name).
    """

    def __init__(self, user_matrix: np.ndarray, item_matrix: np.ndarray,
                 version: int | None = None, dtype="float32",
                 source: str = "unknown"):
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.version = version
        self.source = source
        user_matrix = np.asarray(user_matrix)
        item_matrix = np.asarray(item_matrix)
        if self.dtype is not None:
            user_matrix = user_matrix.astype(self.dtype, copy=False)
            item_matrix = item_matrix.astype(self.dtype, copy=False)
        self.user_matrix = user_matrix
        self.item_matrix = item_matrix
        # content fingerprint recorded at snapshot build: sha256 over both
        # tables' dtype/shape/bytes, the integrity anchor for the service's
        # archive and checkpoint reload round-trips
        self.content_hash = array_sha256(user_matrix, item_matrix)
        self._backend: MatrixBackend | None = None
        self._ann_indexes: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    @classmethod
    def snapshot(cls, model, dtype="float32") -> "EmbeddingStore | None":
        """Snapshot a model's serving embeddings; ``None`` if it has none.

        Models without a factored form (``serving_embeddings()`` returning
        ``None``) cannot be snapshotted — serving falls back to brute-force
        scoring through the model itself.
        """
        provider = getattr(model, "serving_embeddings", None)
        embeddings = provider() if callable(provider) else None
        if embeddings is None:
            return None
        user_matrix, item_matrix = embeddings
        return cls(user_matrix, item_matrix, version=model_version(model),
                   dtype=dtype, source=getattr(model, "name", "unknown"))

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self.user_matrix.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.user_matrix.shape[1]

    def backend(self) -> MatrixBackend:
        """The (cached) blocked-matmul backend over this snapshot."""
        if self._backend is None:
            self._backend = MatrixBackend(self.user_matrix, self.item_matrix)
        return self._backend

    def ann_index(self, *, num_lists: int | None = None, quant: str = "none",
                  seed: int = 0):
        """The (cached) IVF index over this snapshot's item matrix.

        One index per ``(num_lists, quant, seed)`` configuration, kept for
        the life of the store: the item matrix it was built over never
        changes. K-means is seeded, so an identical snapshot +
        configuration always yields an identical index.
        """
        from repro.serve.ann import IVFIndex

        key = (num_lists, quant, seed)
        index = self._ann_indexes.get(key)
        if index is None:
            index = IVFIndex(self.item_matrix, num_lists=num_lists,
                             quant=quant, seed=seed)
            self._ann_indexes[key] = index
        return index

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Pairwise snapshot scores for parallel (user, item) arrays."""
        return self.backend().score_pairs(users, items)

    def verify(self) -> str:
        """Re-hash the tables against the hash recorded at snapshot build.

        Catches in-place mutation of a supposedly frozen snapshot. Returns
        the recomputed hash; raises :class:`SnapshotIntegrityError` on a
        mismatch.
        """
        actual = array_sha256(self.user_matrix, self.item_matrix)
        if actual != self.content_hash:
            raise SnapshotIntegrityError(
                f"snapshot content hash {actual[:16]}… does not match the "
                f"recorded fingerprint {self.content_hash[:16]}… (source="
                f"{self.source!r}, version={self.version})")
        return actual

    def verified_copy(self) -> "EmbeddingStore":
        """:meth:`verify`, then a store over the same tables without the
        derived caches (the transposed catalog copy, an IVF index) — what
        the service archives. The tables are hashed once: the copy keeps
        the fingerprint just checked instead of computing it again.
        """
        self.verify()
        bare = copy.copy(self)
        bare._backend, bare._ann_indexes = None, {}
        return bare

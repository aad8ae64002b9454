"""The serving facade: the one mutable object of the serving tier.

``RecommendationService`` is what an application holds: it snapshots the
model's serving embeddings (float32 by default) into an immutable
:class:`~repro.serve.store.EmbeddingStore`, builds the seen-item
exclusion mask from the training data, and answers ``recommend`` /
``recommend_cold`` without touching autograd or re-propagating the graph.
*What is being served right now* is one reference, the current
``(store, retriever)`` pair, replaced whole by ``refresh()`` /
``reload()`` / ``recover()`` and by nothing else: after training, call
``refresh()`` (behind HTTP the watcher thread does).
"""

from __future__ import annotations

import collections
import threading

import numpy as np

from repro.serve.retriever import (
    ExclusionMask,
    ScorerBackend,
    TopKResult,
    TopKRetriever,
)
from repro.serve.store import EmbeddingStore, model_version

#: what ``ann=`` may carry for ``retriever="ivf"``
ANN_OPTIONS = ("nprobe", "quant", "num_lists", "shortlist_k", "seed")


class RecommendationService:
    """Batched top-K serving over one recommender.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.Recommender`. Factored models
        (GNMR, NGCF) serve through an :class:`EmbeddingStore` snapshot;
        others through brute-force scoring.
    train:
        Training :class:`~repro.data.dataset.InteractionDataset`; provides
        the seen-item exclusion mask (``None`` disables exclusion).
    dtype:
        Snapshot precision (float32 default; ``None`` keeps the model's).
    k_default:
        ``recommend`` cutoff when ``k`` is omitted.
    batch_users:
        Users per scoring block (peak memory ∝ ``batch_users × catalog``).
    exclude:
        ``"target"`` / ``"all"`` / iterable of behavior names — which
        interactions make an item non-recommendable for a user; ``None``
        disables exclusion even when ``train`` is given.
    retriever:
        ``"exact"`` (default) — blocked full-catalog scan; ``"ivf"`` —
        approximate retrieval through an
        :class:`~repro.serve.ann.IVFIndex` built over the snapshot's item
        matrix (requires a factored model). Every installed snapshot gets
        an index of its own, built before the snapshot starts serving.
    ann:
        Options for ``retriever="ivf"``: ``nprobe`` (lists probed per
        query, default 8), ``quant`` (``"none"``/``"int8"``),
        ``num_lists``, ``shortlist_k``, ``seed``. Any other key raises
        ``ValueError``.
    retain:
        Earlier snapshots kept for :meth:`recover` (keep-last-N, default
        2). Every swap archives the outgoing store after re-verifying its
        hash, so a bad swap can be undone back to the last N good
        versions. ``0`` keeps nothing.

    Lifecycle: construction snapshots the model and builds the exclusion
    mask and the retriever; a request reads the ``(store, retriever)``
    pair once and finishes on what it read. The pair changes only when
    asked to, always through :meth:`_install`: :meth:`refresh` swaps in a
    new snapshot if the model's engine version moved, :meth:`reload`
    unconditionally, :meth:`recover` swaps an archived one back in.

    >>> import numpy as np
    >>> from repro.data import taobao_like
    >>> from repro.models import BiasMF
    >>> data = taobao_like(num_users=25, num_items=40, seed=0)
    >>> model = BiasMF(data.num_users, data.num_items, seed=0)
    >>> service = RecommendationService(model, train=data, k_default=3)
    >>> result = service.recommend([0, 1])
    >>> result.items.shape          # (users, k), best item first
    (2, 3)
    >>> bool(np.isfinite(result.scores).all())
    True
    """

    def __init__(self, model, train=None, *, dtype="float32",
                 k_default: int = 10, batch_users: int = 256,
                 exclude: str | tuple | list | None = "target",
                 retriever: str = "exact", ann: dict | None = None,
                 retain: int = 2):
        if retriever not in ("exact", "ivf"):
            raise ValueError(f"unknown retriever {retriever!r}; "
                             "expected 'exact' or 'ivf'")
        if retain < 0:
            raise ValueError("retain must be >= 0")
        self.ann_options = dict(ann or {})
        for key in self.ann_options:
            if key not in ANN_OPTIONS:
                raise ValueError(f"unknown ann option {key!r}; expected "
                                 f"one of {', '.join(ANN_OPTIONS)}")
        self.model = model
        self.dtype = dtype
        self.k_default = int(k_default)
        self.batch_users = int(batch_users)
        self.retriever_kind = retriever
        if train is not None and exclude is not None:
            self.exclusions = ExclusionMask.from_dataset(train,
                                                         behaviors=exclude)
        else:
            self.exclusions = None
        #: verified earlier stores, oldest first, caches stripped
        self._archive: collections.deque = collections.deque(maxlen=retain)
        # serializes snapshot transitions (the HTTP watcher thread, an
        # operator's reload); request threads never take it
        self._lock = threading.Lock()
        store = self._snapshot()
        self._current = (store, self._build_retriever(store))

    # ------------------------------------------------------------------
    # snapshot lifecycle
    # ------------------------------------------------------------------
    def _snapshot(self) -> EmbeddingStore | None:
        return EmbeddingStore.snapshot(self.model, dtype=self.dtype)

    def _build_retriever(self, store: EmbeddingStore | None):
        """The retriever over ``store`` (exact or IVF, index included)."""
        if self.retriever_kind == "ivf":
            if store is None:
                raise ValueError(
                    "retriever='ivf' needs a factored model (serving "
                    "embeddings); this model only supports exact "
                    "brute-force retrieval")
            from repro.serve.ann import ApproxRetriever

            opts = self.ann_options
            index = store.ann_index(
                num_lists=opts.get("num_lists"),
                quant=opts.get("quant", "none"),
                seed=opts.get("seed", 0))
            # the store has what the IVF search reads (user rows, item
            # count); the exact backend's transposed catalog copy is built
            # only when something scans exactly
            return ApproxRetriever(
                store, index, exclude=self.exclusions,
                batch_users=self.batch_users,
                nprobe=opts.get("nprobe", 8),
                shortlist_k=opts.get("shortlist_k"))
        backend = (store.backend() if store is not None
                   else ScorerBackend(self.model))
        return TopKRetriever(backend, exclude=self.exclusions,
                             batch_users=self.batch_users)

    def _install(self, store: EmbeddingStore | None, *,
                 archive_outgoing: bool) -> None:
        """The one snapshot transition: make ``store`` what is served.

        In order: re-hash the outgoing tables (a mutated supposedly-frozen
        snapshot raises :class:`~repro.serve.store.SnapshotIntegrityError`
        and is neither archived as "good" nor replaced), build the
        incoming retriever with its index, and only then replace the
        ``(store, retriever)`` pair in one assignment — a request that
        already read the old pair finishes on the old tables, and at no
        instant is a version served over another version's items.
        Callers hold ``self._lock``.
        """
        outgoing = self.store
        archived = None
        if archive_outgoing and outgoing is not None:
            archived = outgoing.verified_copy()
        retriever = self._build_retriever(store)
        if archived is not None:
            # without the derived caches: a restore rebuilds them
            self._archive.append(archived)
        self._current = (store, retriever)

    def reload(self) -> None:
        """Snapshot the model again and swap it in, unconditionally.

        For models without an observable version (no engine) and for
        operators who want a swap now; :meth:`refresh` is the cheap check.
        """
        with self._lock:
            self._install(self._snapshot(), archive_outgoing=True)

    def refresh(self) -> bool:
        """Swap in a new snapshot if the model trained past the served one:
        its engine version differs from the snapshot's. Version-less and
        brute-force models are never *observably* stale — :meth:`reload`
        renews theirs. Returns whether a swap happened.
        """
        with self._lock:
            store, current = self.store, model_version(self.model)
            if (store is None or None in (current, store.version)
                    or current == store.version):
                return False
            self._install(self._snapshot(), archive_outgoing=True)
            return True

    def recover(self, version: int | None = None) -> int | None:
        """Swap an archived good snapshot back in (the newest by default).

        The serving-tier escape hatch when a swap found the served tables
        corrupt. The restored tables are re-hashed against the fingerprint
        recorded when they were archived — an archive that rotted in
        memory raises :class:`~repro.serve.store.SnapshotIntegrityError`
        rather than serving silently wrong scores — and get a retriever of
        their own before they serve. ``version`` picks a specific archived
        engine version; everything archived after it is discarded (rolling
        back past a snapshot abandons it), and so is the outgoing
        snapshot. Returns the restored version; raises ``ValueError`` when
        nothing (or not that version) is archived.
        """
        with self._lock:
            available = self.archived_versions()
            if version is None and available:
                version = available[-1]
            if version not in available:
                raise ValueError(
                    f"no archived snapshot to roll back to (asked for "
                    f"version {version}); available: {available}")
            store = self._archive.pop()
            while store.version != version:
                store = self._archive.pop()
            store.verify()
            self._install(store, archive_outgoing=False)
            return store.version

    def archived_versions(self) -> list[int | None]:
        """Versions available to :meth:`recover`, oldest first."""
        return [store.version for store in self._archive]

    @property
    def store(self) -> EmbeddingStore | None:
        """The snapshot being served (``None`` for brute-force models)."""
        return self._current[0]

    @property
    def retriever(self):
        """The retriever over :attr:`store`."""
        return self._current[1]

    @property
    def snapshot_version(self) -> int | None:
        """Engine version of the current snapshot (None for brute force)."""
        return self._version_of(self.store)

    def _version_of(self, store: EmbeddingStore | None) -> int | None:
        if store is not None:
            return store.version
        return model_version(self.model)

    # ------------------------------------------------------------------
    # serving API
    # ------------------------------------------------------------------
    def recommend(self, users, k: int | None = None) -> TopKResult:
        """Top-K recommendations for one user id or an array of them.

        ``result.version`` is the version of the tables that produced it.
        """
        store, retriever = self._current
        result = retriever.retrieve(users,
                                    k if k is not None else self.k_default)
        result.version = self._version_of(store)
        return result

    # ------------------------------------------------------------------
    # cold-user path
    # ------------------------------------------------------------------
    def cold_user_embeddings(self, users) -> np.ndarray:
        """Fresh serving embeddings for a few users, bypassing the snapshot.

        Runs the model's single-seed layered extraction
        (``model.cold_user_embeddings``, backed by ``graph/layered.py``
        with ``fanout=None`` → exact full-neighborhood propagation for
        the seeds) over the *current* parameters, then casts to the
        snapshot dtype. The rows match what the user's row in the *next*
        snapshot will be, to within a float64 ulp — which is the whole
        point: a user who trained into the graph after the last snapshot
        can be served now.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        provider = getattr(self.model, "cold_user_embeddings", None)
        vectors = provider(users) if callable(provider) else None
        if vectors is None:
            raise ValueError(
                f"{type(self.model).__name__} has no cold-user extraction "
                "path (needs factored serving embeddings + layered blocks)")
        vectors = np.asarray(vectors)
        if self.dtype is not None:
            vectors = vectors.astype(self.dtype, copy=False)
        return vectors

    def recommend_cold(self, users, k: int | None = None) -> TopKResult:
        """Top-K through a freshly extracted embedding (cold-user path).

        Asks the *current* retriever with the cold vectors as queries, so
        they meet the current snapshot's item matrix through the same
        scan or index probe, exclusion stamping and selection as the warm
        path — when the model hasn't trained since the snapshot, the
        result matches :meth:`recommend` (same ranking; scores agree to
        the extraction's float64-ulp tolerance), under ``"ivf"`` too.
        Brute-force models (no factored form) already score current
        parameters, so they just delegate.
        """
        store, retriever = self._current
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        k = int(k) if k is not None else self.k_default
        if store is None:
            result = retriever.retrieve(users, k)
        else:
            vectors = self.cold_user_embeddings(users)
            if vectors.shape[1] != store.dim:
                raise ValueError(
                    f"cold embedding dim {vectors.shape[1]} does not match "
                    f"snapshot dim {store.dim}")
            result = retriever.retrieve(users, k, queries=vectors)
        result.version = self._version_of(store)
        return result

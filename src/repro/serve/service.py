"""The serving facade: snapshot + retriever + exclusions in one object.

``RecommendationService`` is what an application holds: it snapshots the
model's serving embeddings once (float32 by default), builds the seen-item
exclusion mask from the training data, and answers ``recommend`` /
``score_candidates`` requests without touching autograd or re-propagating
the graph. When the underlying model trains on (engine version bump), the
service warm-reloads the snapshot transparently on the next request.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.serve.retriever import (
    ExclusionMask,
    ScorerBackend,
    TopKResult,
    TopKRetriever,
)
from repro.serve.store import EmbeddingStore, model_version


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
    auto_refresh:
        Warm-reload the snapshot automatically when the model's engine
        version moved (default on).
    retriever:
        ``"exact"`` (default) — blocked full-catalog scan; ``"ivf"`` —
        approximate retrieval through an
        :class:`~repro.serve.ann.IVFIndex` built over the snapshot's item
        matrix (requires a factored model). The index follows the
        snapshot lifecycle: a warm reload rebuilds it against the fresh
        tables.
    ann:
        Options for ``retriever="ivf"``: ``nprobe`` (lists probed per
        query, default 8), ``quant`` (``"none"``/``"int8"``),
        ``num_lists``, ``shortlist_k``, ``seed``.

    Lifecycle: construction cold-loads (snapshot + exclusion mask +
    retriever); every ``recommend`` / ``score_candidates`` call first
    checks the model's engine version and warm-reloads a stale snapshot;
    ``reload(cold=True)`` rebuilds everything (e.g. after the training
    data — and thus the exclusion mask — changed).

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
                 auto_refresh: bool = True, retriever: str = "exact",
                 ann: dict | None = None, retain: int = 2):
        if retriever not in ("exact", "ivf"):
            raise ValueError(f"unknown retriever {retriever!r}; "
                             "expected 'exact' or 'ivf'")
        self.model = model
        self.train = train
        self.dtype = dtype
        self.k_default = int(k_default)
        self.batch_users = int(batch_users)
        self.exclude_behaviors = exclude
        self.auto_refresh = auto_refresh
        self.retriever_kind = retriever
        self.ann_options = dict(ann or {})
        self.retain = int(retain)
        # Guards the snapshot lifecycle (reload / freshness check) against
        # concurrent callers — the HTTP tier runs the freshness check on a
        # background thread while request threads call ``recommend``.
        self._lock = threading.RLock()
        self._cold_load()

    # ------------------------------------------------------------------
    # snapshot lifecycle
    # ------------------------------------------------------------------
    def _build_retriever(self):
        """The retriever for the current snapshot (exact or IVF)."""
        if self.retriever_kind == "ivf":
            if self.store is None:
                raise ValueError(
                    "retriever='ivf' needs a factored model (serving "
                    "embeddings); this model only supports exact "
                    "brute-force retrieval")
            from repro.serve.ann import ApproxRetriever

            opts = self.ann_options
            index = self.store.ann_index(
                num_lists=opts.get("num_lists"),
                quant=opts.get("quant", "none"),
                seed=opts.get("seed", 0))
            return ApproxRetriever(
                self.store.backend(), index, exclude=self.exclusions,
                batch_users=self.batch_users,
                nprobe=opts.get("nprobe", 8),
                shortlist_k=opts.get("shortlist_k"))
        backend = (self.store.backend() if self.store is not None
                   else ScorerBackend(self.model))
        return TopKRetriever(backend, exclude=self.exclusions,
                             batch_users=self.batch_users)

    def _cold_load(self) -> None:
        """Rebuild everything: snapshot, exclusion mask, retriever."""
        self.store = EmbeddingStore.snapshot(self.model, dtype=self.dtype,
                                             retain=self.retain)
        if self.train is not None and self.exclude_behaviors is not None:
            self.exclusions = ExclusionMask.from_dataset(
                self.train, behaviors=self.exclude_behaviors)
        else:
            self.exclusions = None
        self.retriever = self._build_retriever()

    def reload(self, cold: bool = False) -> bool:
        """Refresh the serving state from the model.

        Warm reload (default) re-snapshots the embedding tables in place,
        keeping the exclusion mask and retriever wiring; cold reload
        rebuilds everything (use after swapping the training dataset or
        when the model gained/lost its factored form). Returns whether
        serving tables actually changed.
        """
        with self._lock:
            if cold or self.store is None:
                self._cold_load()
                return True
            changed = self.store.refresh(self.model, force=True)
            self._rewire_retriever()
            return changed

    def recover(self, version: int | None = None) -> int | None:
        """Roll the snapshot back to an archived good version and rewire.

        The serving-tier escape hatch: when a hot swap produced (or a
        freshness check discovered) a snapshot that fails integrity
        verification, ``recover()`` restores the newest archived snapshot
        — hash-verified on restore — and swaps in a retriever built over
        it, so requests go back to bit-matching the last good tables.
        Returns the restored engine version; raises ``ValueError`` when
        nothing is archived (or for brute-force models with no snapshot).
        """
        with self._lock:
            if self.store is None:
                raise ValueError(
                    "brute-force serving has no snapshot to roll back")
            restored = self.store.rollback(version)
            self._rewire_retriever()
            return restored

    def _rewire_retriever(self) -> None:
        """Swap in a retriever built against the refreshed snapshot.

        Always constructs a *new* retriever object and flips the
        ``self.retriever`` reference in one assignment: a request thread
        that already grabbed the old retriever finishes its whole
        retrieval on the old snapshot instead of seeing tables change
        under it mid-scan. The IVF index follows along through
        ``store.ann_index`` (cached per snapshot version, so an
        unchanged snapshot costs nothing).
        """
        self.retriever = self._build_retriever()

    def _ensure_fresh(self) -> None:
        if not (self.auto_refresh and self.store is not None):
            return
        if not self.store.is_stale(self.model):
            return
        with self._lock:
            if self.store.is_stale(self.model):
                self.store.refresh(self.model)
                self._rewire_retriever()

    @property
    def snapshot_version(self) -> int | None:
        """Engine version of the current snapshot (None for brute force)."""
        if self.store is not None:
            return self.store.version
        return model_version(self.model)

    # ------------------------------------------------------------------
    # serving API
    # ------------------------------------------------------------------
    def recommend(self, users, k: int | None = None) -> TopKResult:
        """Top-K recommendations for one user id or an array of them."""
        self._ensure_fresh()
        return self.retriever.retrieve(users, k if k is not None else self.k_default)

    def recommend_all(self, k: int | None = None,
                      users: np.ndarray | None = None) -> TopKResult:
        """Recommendations for every user (or a given subset), batched."""
        if users is None:
            num_users = (self.store.num_users if self.store is not None
                         else self.model.num_users)
            users = np.arange(num_users, dtype=np.int64)
        return self.recommend(users, k)

    def score_candidates(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Scores for parallel (user, item) arrays — reranking hook.

        Uses the snapshot when available (no propagation), the model's
        ``score`` otherwise.
        """
        self._ensure_fresh()
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if self.store is not None:
            return self.store.score(users, items)
        return np.asarray(self.model.score(users, items))

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
        if self.store is not None:
            vectors = vectors.astype(self.store.user_matrix.dtype, copy=False)
        return vectors

    def recommend_cold(self, users, k: int | None = None) -> TopKResult:
        """Top-K through a freshly extracted embedding (cold-user path).

        Scores the cold embedding against the *current snapshot's* item
        matrix with the same GEMM, exclusion stamping, and selection as
        the warm path — when the model hasn't trained since the snapshot,
        the result matches :meth:`recommend` (same ranking; scores agree
        to the extraction's float64-ulp tolerance). Brute-force models
        (no factored form) already score current parameters, so they just
        delegate.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        k = int(k) if k is not None else self.k_default
        if k <= 0:
            raise ValueError("k must be positive")
        if self.store is None:
            return self.retriever.retrieve(users, k)
        vectors = self.cold_user_embeddings(users)
        backend = self.store.backend()
        if vectors.shape[1] != backend.dim:
            raise ValueError(
                f"cold embedding dim {vectors.shape[1]} does not match "
                f"snapshot dim {backend.dim}")
        # same operand layout as MatrixBackend.score_block: rows @ item_t
        scores = vectors @ backend.item_matrix.T
        if self.exclusions is not None:
            counts, cols = self.exclusions.gather(users)
            ExclusionMask.stamp(scores, counts, cols)
        k_eff = min(k, backend.num_items)
        top_items, top_scores = TopKRetriever._select(scores, k_eff)
        return TopKResult(users=users, items=top_items,
                          scores=top_scores.astype(np.float64, copy=False))

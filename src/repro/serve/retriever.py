"""Batched top-K retrieval against the full item catalog.

The serving hot path is a blocked matrix product: a block of user vectors
against the whole item table, top-K selected per row with
``np.argpartition`` (O(J) per user instead of the O(J log J) full sort),
already-seen items suppressed through a CSR exclusion mask before
selection. Everything here is duck-typed on numpy arrays — no model or
dataset imports — so the layer sits below ``repro.models`` and
``repro.eval`` without cycles.

Two scoring backends feed the retriever:

* :class:`MatrixBackend` — factored models (GNMR, NGCF) whose preference
  score is an inner product of serving embeddings; one BLAS call scores a
  user block against the entire catalog.
* :class:`ScorerBackend` — brute-force fallback for models that only
  expose pairwise ``score(users, items)``; the retriever semantics are
  identical, only throughput differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass
class TopKResult:
    """Top-K recommendations for a batch of users.

    Attributes
    ----------
    users:
        (U,) requested user ids.
    items:
        (U, k) recommended item ids, best first; ``-1`` pads rows with
        fewer than k recommendable items (catalog exhausted by exclusions).
    scores:
        (U, k) preference scores aligned with ``items``; ``-inf`` on pads.
    version:
        Engine version of the snapshot that produced the rows — stamped by
        :class:`~repro.serve.service.RecommendationService`; ``None`` from
        a bare retriever, which knows tables, not versions.
    """

    users: np.ndarray
    items: np.ndarray
    scores: np.ndarray
    version: int | None = None

    @property
    def k(self) -> int:
        return self.items.shape[1]

    def __len__(self) -> int:
        return len(self.users)

    def as_lists(self) -> list[list[tuple[int, float]]]:
        """Per-user ``[(item, score), ...]`` lists with padding dropped."""
        out: list[list[tuple[int, float]]] = []
        for row_items, row_scores in zip(self.items, self.scores):
            valid = row_items >= 0
            out.append([(int(i), float(s))
                        for i, s in zip(row_items[valid], row_scores[valid])])
        return out

    def to_payload(self) -> list[dict]:
        """JSON-serializable structure (the CLI ``recommend`` output)."""
        return [
            {"user": int(user),
             "items": [{"item": item, "score": score} for item, score in row]}
            for user, row in zip(self.users, self.as_lists())
        ]


#: rows of the (J, D) catalog transposed per block into the backend's
#: (D, J) copy: a block is read and written while both sides sit in cache.
#: One strided pass (``np.ascontiguousarray(item_matrix.T)``) took 91 ms
#: at 200 000 × 48 float32 on a 2-vCPU VM, blocks of 256–4 096 rows
#: 20–24 ms, 16 384 rows 25 ms; float64 259 ms against 45 ms at 1 024
TRANSPOSE_BLOCK_ROWS = 1024


def _contiguous_transpose(matrix: np.ndarray) -> np.ndarray:
    """C-contiguous copy of ``matrix.T``, filled in cache-sized row blocks."""
    out = np.empty(matrix.shape[::-1], dtype=matrix.dtype)
    for start in range(0, matrix.shape[0], TRANSPOSE_BLOCK_ROWS):
        stop = start + TRANSPOSE_BLOCK_ROWS
        out[:, start:stop] = matrix[start:stop].T
    return out


class MatrixBackend:
    """Full-catalog scoring as one blocked matmul over serving embeddings.

    ``score_block(users)`` returns ``user_matrix[users] @ item_matrix.T``
    — exact for any model whose score is an inner product of (possibly
    concatenated multi-order) embeddings.

    Parameters
    ----------
    user_matrix, item_matrix:
        (U, D) and (J, D) serving embedding tables.
    dtype:
        Cast both tables (``None`` keeps their native precision; float32
        halves the bandwidth of the matmul and is the serving default
        upstream in :class:`~repro.serve.store.EmbeddingStore`).
    """

    #: retrievers may pass ``out=`` to ``score_block`` to reuse a scratch
    #: buffer across blocks instead of allocating one per call
    supports_out = True

    def __init__(self, user_matrix: np.ndarray, item_matrix: np.ndarray,
                 dtype=None):
        user_matrix = np.asarray(user_matrix)
        item_matrix = np.asarray(item_matrix)
        if user_matrix.ndim != 2 or item_matrix.ndim != 2:
            raise ValueError("serving embeddings must be 2-D matrices")
        if user_matrix.shape[1] != item_matrix.shape[1]:
            raise ValueError(
                f"embedding dims differ: users {user_matrix.shape[1]} vs "
                f"items {item_matrix.shape[1]}")
        if dtype is not None:
            user_matrix = user_matrix.astype(dtype, copy=False)
            item_matrix = item_matrix.astype(dtype, copy=False)
        self.user_matrix = user_matrix
        # keep the transposed catalog contiguous so every block matmul hits
        # the fast GEMM path instead of a strided fallback
        self._item_t = _contiguous_transpose(item_matrix)

    @property
    def num_users(self) -> int:
        return self.user_matrix.shape[0]

    @property
    def num_items(self) -> int:
        return self._item_t.shape[1]

    @property
    def dim(self) -> int:
        return self.user_matrix.shape[1]

    @property
    def item_matrix(self) -> np.ndarray:
        """(J, D) catalog view — what the ANN index is built over."""
        return self._item_t.T

    @property
    def scores_dtype(self) -> np.dtype:
        """Dtype ``score_block`` produces (what an ``out`` buffer needs)."""
        return np.result_type(self.user_matrix, self._item_t)

    def score_block(self, users: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Scores of a user block against the full catalog: (B, J)."""
        users = np.asarray(users, dtype=np.int64)
        return self.score_queries(self.user_matrix[users], out)

    def score_queries(self, queries: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """Scores of (B, D) query vectors against the full catalog: (B, J)
        — stored user rows, or the cold-user path's freshly extracted ones."""
        if out is not None:
            return np.dot(queries, self._item_t, out=out)
        return queries @ self._item_t

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Pairwise scores for parallel (user, item) index arrays."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return np.einsum("bd,bd->b", self.user_matrix[users],
                         self._item_t.T[items])


class ScorerBackend:
    """Brute-force catalog scoring through a pairwise ``score`` method.

    The universal fallback: any :class:`~repro.models.base.Recommender`
    (or eval-protocol ``Scorer``) works, at O(B·J) pair construction cost
    per block.
    """

    def __init__(self, model, num_items: int | None = None):
        self.model = model
        if num_items is None:
            num_items = getattr(model, "num_items", None)
        if num_items is None:
            raise ValueError("num_items required for models without a "
                             "num_items attribute")
        self.num_items = int(num_items)
        self._all_items = np.arange(self.num_items, dtype=np.int64)

    @property
    def num_users(self) -> int:
        return int(getattr(self.model, "num_users", 0))

    def score_block(self, users: np.ndarray) -> np.ndarray:
        users = np.asarray(users, dtype=np.int64)
        flat_users = np.repeat(users, self.num_items)
        flat_items = np.tile(self._all_items, users.size)
        scores = np.asarray(self.model.score(flat_users, flat_items))
        return scores.reshape(users.size, self.num_items)

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        return np.asarray(self.model.score(np.asarray(users, dtype=np.int64),
                                           np.asarray(items, dtype=np.int64)))


def backend_for(model, dtype=None, num_items: int | None = None):
    """Best scoring backend for a model: factored if it serves embeddings.

    Models exposing ``serving_embeddings()`` (GNMR, NGCF) get the blocked
    matmul; everything else falls back to brute-force pairwise scoring
    (``num_items`` covers bare scorers without a ``num_items`` attribute).
    """
    provider = getattr(model, "serving_embeddings", None)
    embeddings = provider() if callable(provider) else None
    if embeddings is None:
        return ScorerBackend(model, num_items=num_items)
    return MatrixBackend(*embeddings, dtype=dtype)


class ExclusionMask:
    """Per-user sets of non-recommendable items, stored as one CSR matrix.

    ``apply`` stamps ``-inf`` over the excluded entries of a score block
    in one vectorized pass — no per-user Python loop, which is what makes
    full-catalog retrieval and evaluation scale past toy sizes.
    """

    def __init__(self, matrix: sp.spmatrix):
        matrix = matrix.tocsr()
        matrix.sum_duplicates()
        self._indptr = matrix.indptr
        self._indices = matrix.indices.astype(np.int64, copy=False)
        self.shape = matrix.shape

    @classmethod
    def from_pairs(cls, users: np.ndarray, items: np.ndarray,
                   num_users: int, num_items: int) -> "ExclusionMask":
        """Mask from parallel (user, item) arrays of seen interactions."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        matrix = sp.csr_matrix(
            (np.ones(users.size, dtype=np.int8), (users, items)),
            shape=(num_users, num_items))
        return cls(matrix)

    @classmethod
    def from_dataset(cls, dataset, behaviors: str = "target") -> "ExclusionMask":
        """Mask of every item each user already interacted with.

        Parameters
        ----------
        dataset:
            Anything with the :class:`~repro.data.dataset.InteractionDataset`
            surface (``arrays``, ``behavior_names``, ``target_behavior``).
        behaviors:
            ``"target"`` — only target-behavior positives (matches the
            evaluation protocol); ``"all"`` — any interaction of any type
            (the conservative serving default for user-facing feeds); or an
            explicit iterable of behavior names.
        """
        if behaviors == "target":
            names = (dataset.target_behavior,)
        elif behaviors == "all":
            names = tuple(dataset.behavior_names)
        else:
            names = tuple(behaviors)
        user_parts: list[np.ndarray] = []
        item_parts: list[np.ndarray] = []
        for name in names:
            users, items, _ = dataset.arrays(name)
            user_parts.append(users)
            item_parts.append(items)
        return cls.from_pairs(np.concatenate(user_parts) if user_parts else np.array([], dtype=np.int64),
                              np.concatenate(item_parts) if item_parts else np.array([], dtype=np.int64),
                              dataset.num_users, dataset.num_items)

    def counts(self, users: np.ndarray) -> np.ndarray:
        """Number of excluded items per requested user."""
        users = np.asarray(users, dtype=np.int64)
        return self._indptr[users + 1] - self._indptr[users]

    def gather(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Excluded columns of a user batch: ``(counts, cols)``.

        ``cols`` concatenates each user's excluded item ids in request
        order (ascending within a user — CSR column order); ``counts``
        says where each user's segment ends. Retrievers call this once
        per request and slice per scoring block, so the CSR range
        arithmetic is not re-derived inside the scoring loop.
        """
        users = np.asarray(users, dtype=np.int64)
        starts = self._indptr[users].astype(np.int64, copy=False)
        counts = (self._indptr[users + 1] - self._indptr[users]).astype(
            np.int64, copy=False)
        total = int(counts.sum())
        if total == 0:
            return counts, np.empty(0, dtype=np.int64)
        # flat positions [start_0..start_0+c_0) ∪ [start_1..) ∪ …
        offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                            counts)
        cols = self._indices[np.arange(total) + offsets]
        return counts, cols

    @staticmethod
    def stamp(scores: np.ndarray, counts: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
        """Stamp ``-inf`` over pre-gathered ``(counts, cols)`` rows of a block."""
        if cols.size:
            rows = np.repeat(np.arange(counts.size), counts)
            scores[rows, cols] = -np.inf
        return scores

    def apply(self, users: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Stamp ``-inf`` on the excluded entries of ``scores`` in place.

        ``scores`` is the (B, J) block for ``users``. One-shot
        convenience over :meth:`gather` + :meth:`stamp`; blocked loops
        should gather once per request instead.
        """
        counts, cols = self.gather(users)
        return self.stamp(scores, counts, cols)


class TopKRetriever:
    """Vectorized blocked top-K retrieval over a scoring backend.

    Parameters
    ----------
    backend:
        :class:`MatrixBackend` / :class:`ScorerBackend` (anything with
        ``score_block`` and ``num_items``).
    exclude:
        Optional :class:`ExclusionMask` of already-seen items.
    batch_users:
        Upper bound on users scored per block — bounds peak memory at
        ``batch_users × num_items`` floats.

    Notes
    -----
    Scoring and selection run in the backend's native floating dtype and
    only the selected top-k is cast to float64; the cast is exact for
    every narrower float, so the ranking is identical to ranking the
    float64-cast block (what earlier versions did) at half the memory
    traffic. Matrix backends are additionally processed in
    cache-sized row chunks (``SELECT_CHUNK_BYTES`` of scores at a time,
    never more than ``batch_users``) through one reused scratch buffer:
    the selection passes over a block re-read it entirely, so keeping the
    block resident in cache is worth more than large-block GEMM — without
    the chunking, throughput *drops* as ``batch_users`` grows.

    Selection uses ``argpartition`` then orders the selected candidates by
    ``(-score, item id)``, so the returned ranking is deterministic; among
    exactly tied scores at the selection boundary the partition picks an
    arbitrary (but reproducible) subset.
    """

    #: score-block working set targeted by the internal chunking; ~a few
    #: MiB keeps the block in L2/L3 across the exclusion + selection passes
    SELECT_CHUNK_BYTES = 4 * 1024 * 1024

    def __init__(self, backend, exclude: ExclusionMask | None = None,
                 batch_users: int = 256):
        if batch_users <= 0:
            raise ValueError("batch_users must be positive")
        self.backend = backend
        self.exclude = exclude
        self.batch_users = int(batch_users)

    def _chunk_rows(self, num_items: int) -> tuple[int, np.ndarray | None]:
        """Rows per scoring chunk, plus a reusable scratch buffer."""
        if not getattr(self.backend, "supports_out", False):
            return self.batch_users, None
        dtype = np.dtype(self.backend.scores_dtype)
        if not np.issubdtype(dtype, np.floating):
            return self.batch_users, None
        budget = self.SELECT_CHUNK_BYTES // max(num_items * dtype.itemsize, 1)
        chunk = min(self.batch_users, max(16, int(budget)))
        return chunk, np.empty((chunk, num_items), dtype=dtype)

    def retrieve(self, users: np.ndarray, k: int,
                 queries: np.ndarray | None = None) -> TopKResult:
        """Top-``k`` items per user, seen items excluded.

        ``queries`` — (U, D) vectors to score in place of the backend's
        stored rows for ``users`` (the cold-user path; matrix backends
        only). ``users`` still selects the exclusion rows, and chunking,
        stamping and selection are the same either way.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        if k <= 0:
            raise ValueError("k must be positive")
        if queries is not None:
            queries = np.asarray(queries, dtype=self.backend.user_matrix.dtype)
        num_items = self.backend.num_items
        k_eff = min(int(k), num_items)
        items = np.full((users.size, k_eff), -1, dtype=np.int64)
        scores = np.full((users.size, k_eff), -np.inf, dtype=np.float64)
        if self.exclude is not None:
            excl_counts, excl_cols = self.exclude.gather(users)
            excl_bounds = np.concatenate(([0], np.cumsum(excl_counts)))
        chunk, scratch = self._chunk_rows(num_items)
        for start in range(0, users.size, chunk):
            stop = min(start + chunk, users.size)
            block = users[start:stop]
            if queries is not None:
                block_scores = self.backend.score_queries(
                    queries[start:stop], out=scratch[:stop - start])
            elif scratch is not None:
                block_scores = self.backend.score_block(
                    block, out=scratch[:stop - start])
            else:
                block_scores = np.asarray(self.backend.score_block(block))
                if not np.issubdtype(block_scores.dtype, np.floating):
                    block_scores = block_scores.astype(np.float64)
            if self.exclude is not None:
                ExclusionMask.stamp(
                    block_scores, excl_counts[start:stop],
                    excl_cols[excl_bounds[start]:excl_bounds[stop]])
            top_items, top_scores = self._select(block_scores, k_eff)
            items[start:stop] = top_items
            scores[start:stop] = top_scores
        return TopKResult(users=users, items=items, scores=scores)

    @staticmethod
    def _select(block_scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-row top-k of a (B, J) block: ids best-first, -1 padding."""
        num_items = block_scores.shape[1]
        if k < num_items:
            part = np.argpartition(block_scores, num_items - k, axis=1)[:, -k:]
        else:
            part = np.broadcast_to(np.arange(num_items),
                                   block_scores.shape).copy()
        # ascending item ids first, then a stable sort on -score → ties
        # resolve to the lowest item id, matching a stable full argsort
        part.sort(axis=1)
        picked = np.take_along_axis(block_scores, part, axis=1)
        order = np.argsort(-picked, axis=1, kind="stable")
        top_items = np.take_along_axis(part, order, axis=1)
        top_scores = np.take_along_axis(picked, order, axis=1)
        # entries that remained -inf are exclusions/padding, not items
        top_items[~np.isfinite(top_scores)] = -1
        return top_items, top_scores

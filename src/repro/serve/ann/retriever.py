"""Approximate top-K retrieval: IVF shortlist + exact float re-rank.

Drop-in for :class:`~repro.serve.retriever.TopKRetriever`: same
``retrieve(users, k) -> TopKResult`` surface, same ``-1`` / ``-inf``
padding, and the same :class:`~repro.serve.retriever.ExclusionMask`
semantics — exclusions are stamped on the *candidates* before shortlist
selection, so excluded items never consume shortlist slots and never
surface. Per query the work is three stages:

1. probe ``nprobe`` inverted lists and score only their items in the
   compressed domain (:meth:`~repro.serve.ann.index.IVFIndex.search_block`);
2. keep the ``shortlist_k`` best compressed-domain candidates;
3. re-score the shortlist exactly against the float32 item table and
   return the top ``k`` of that — so compression error can only demote an
   item out of the shortlist, never corrupt a returned score.

With ``nprobe = num_lists`` and ``quant="none"`` every item is a
candidate at full precision and the result matches the exact retriever.
"""

from __future__ import annotations

import numpy as np

from repro.serve.ann.index import IVFIndex
from repro.serve.retriever import ExclusionMask, TopKResult


class ApproxRetriever:
    """IVF-shortlist top-K retrieval over a matrix scoring backend.

    Parameters
    ----------
    backend:
        A :class:`~repro.serve.retriever.MatrixBackend` or an
        :class:`~repro.serve.store.EmbeddingStore` (anything with
        ``user_matrix`` / ``item_matrix`` / ``num_items``); brute-force
        scorer backends have no embedding geometry to index.
    index:
        A prebuilt :class:`~repro.serve.ann.index.IVFIndex` over the
        backend's item matrix; built on the spot when omitted.
    exclude:
        Optional :class:`~repro.serve.retriever.ExclusionMask`, applied
        pre-rerank.
    batch_users:
        Users per search block.
    nprobe:
        Inverted lists probed per query (the recall dial).
    shortlist_k:
        Candidates kept for exact re-ranking (default ``max(4k, 50)``
        per call; the precision dial for quantized scoring).
    num_lists / quant / seed:
        Index build parameters, used only when ``index`` is omitted.

    >>> import numpy as np
    >>> from repro.serve import ApproxRetriever, MatrixBackend, TopKRetriever
    >>> rng = np.random.default_rng(0)
    >>> backend = MatrixBackend(rng.standard_normal((30, 8)),
    ...                         rng.standard_normal((50, 8)))
    >>> approx = ApproxRetriever(backend, nprobe=4, quant="int8", seed=0)
    >>> result = approx.retrieve([0, 1, 2], k=5)
    >>> result.items.shape
    (3, 5)
    >>> exhaustive = ApproxRetriever(backend, nprobe=approx.index.num_lists)
    >>> exact = TopKRetriever(backend).retrieve([0, 1, 2], k=5)
    >>> np.array_equal(exhaustive.retrieve([0, 1, 2], k=5).items, exact.items)
    True
    """

    def __init__(self, backend, index: IVFIndex | None = None, *,
                 exclude: ExclusionMask | None = None, batch_users: int = 256,
                 nprobe: int = 8, shortlist_k: int | None = None,
                 num_lists: int | None = None, quant: str = "none",
                 seed: int = 0):
        if batch_users <= 0:
            raise ValueError("batch_users must be positive")
        if nprobe <= 0:
            raise ValueError("nprobe must be positive")
        if shortlist_k is not None and shortlist_k <= 0:
            raise ValueError("shortlist_k must be positive")
        item_matrix = getattr(backend, "item_matrix", None)
        if item_matrix is None:
            raise ValueError(
                "ApproxRetriever needs a matrix backend exposing item_matrix; "
                "brute-force scorer backends cannot be indexed")
        if index is None:
            index = IVFIndex(item_matrix, num_lists=num_lists, quant=quant,
                             seed=seed)
        elif index.num_items != backend.num_items:
            raise ValueError(
                f"index covers {index.num_items} items but the backend "
                f"serves {backend.num_items}")
        self.backend = backend
        self.index = index
        self.exclude = exclude
        self.batch_users = int(batch_users)
        self.nprobe = int(nprobe)
        self.shortlist_k = None if shortlist_k is None else int(shortlist_k)

    # ------------------------------------------------------------------
    def retrieve(self, users: np.ndarray, k: int,
                 queries: np.ndarray | None = None) -> TopKResult:
        """Approximate top-``k`` items per user, seen items excluded;
        ``queries`` as in
        :meth:`~repro.serve.retriever.TopKRetriever.retrieve`."""
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        if k <= 0:
            raise ValueError("k must be positive")
        num_items = self.index.num_items
        k_eff = min(int(k), num_items)
        shortlist = self.shortlist_k or max(4 * k_eff, 50)
        shortlist = max(shortlist, k_eff)
        items = np.full((users.size, k_eff), -1, dtype=np.int64)
        scores = np.full((users.size, k_eff), -np.inf, dtype=np.float64)
        if self.exclude is not None:
            excl_counts, excl_cols = self.exclude.gather(users)
            excl_bounds = np.concatenate(([0], np.cumsum(excl_counts)))
        for start in range(0, users.size, self.batch_users):
            stop = min(start + self.batch_users, users.size)
            rows = (self.backend.user_matrix[users[start:stop]]
                    if queries is None else queries[start:stop])
            rows = np.ascontiguousarray(rows, dtype=np.float32)
            counts, cand_items, cand_scores = self.index.search_block(
                rows, self.nprobe)
            cand_rows = np.repeat(np.arange(stop - start), counts)
            if self.exclude is not None:
                self._stamp_excluded(
                    cand_rows, cand_items, cand_scores,
                    excl_counts[start:stop],
                    excl_cols[excl_bounds[start]:excl_bounds[stop]])
            top_items, top_scores = self._shortlist_and_rerank(
                rows, counts, cand_rows, cand_items, cand_scores,
                shortlist, k_eff)
            items[start:stop] = top_items
            scores[start:stop] = top_scores
        return TopKResult(users=users, items=items, scores=scores)

    # ------------------------------------------------------------------
    def _stamp_excluded(self, cand_rows, cand_items, cand_scores,
                        excl_counts, excl_cols) -> None:
        """-inf every candidate the block's exclusion rows cover.

        Both sides are encoded as ``row * J + item`` keys; the exclusion
        keys are already sorted (CSR rows ascend, columns ascend within a
        row), so membership is one ``searchsorted`` pass.
        """
        if excl_cols.size == 0 or cand_items.size == 0:
            return
        num_items = self.index.num_items
        excl_keys = (np.repeat(np.arange(excl_counts.size), excl_counts)
                     * num_items + excl_cols)
        cand_keys = cand_rows * num_items + cand_items
        at = np.searchsorted(excl_keys, cand_keys)
        at_clipped = np.minimum(at, excl_keys.size - 1)
        hit = (at < excl_keys.size) & (excl_keys[at_clipped] == cand_keys)
        cand_scores[hit] = -np.inf

    def _shortlist_and_rerank(self, queries, counts, cand_rows, cand_items,
                              cand_scores, shortlist: int, k: int,
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``shortlist`` by compressed score, exact top-``k`` of those."""
        num_rows = queries.shape[0]
        num_items = self.index.num_items
        max_count = int(counts.max()) if counts.size else 0
        if max_count == 0:
            return (np.full((num_rows, k), -1, dtype=np.int64),
                    np.full((num_rows, k), -np.inf, dtype=np.float64))
        # pad the ragged per-user candidate segments into one (B, maxc)
        # matrix so shortlist selection is a single argpartition
        bounds = np.concatenate(([0], np.cumsum(counts)))
        cols = np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)
        padded_scores = np.full((num_rows, max_count), -np.inf,
                                dtype=np.float32)
        padded_items = np.full((num_rows, max_count), -1, dtype=np.int64)
        padded_scores[cand_rows, cols] = cand_scores
        padded_items[cand_rows, cols] = cand_items

        width = min(shortlist, max_count)
        if width < max_count:
            part = np.argpartition(padded_scores, max_count - width,
                                   axis=1)[:, -width:]
            short_scores = np.take_along_axis(padded_scores, part, axis=1)
            short_items = np.take_along_axis(padded_items, part, axis=1)
        else:
            short_scores = padded_scores
            short_items = padded_items
        # pads and excluded candidates carry -inf — they must stay out of
        # the exact re-rank or it would resurrect them with finite scores
        short_items = np.where(np.isfinite(short_scores), short_items, -1)

        # exact re-rank: ascending item id first so that, like the exact
        # retriever, ties resolve to the lowest item id under stable sort
        ids = np.sort(np.where(short_items < 0, num_items, short_items),
                      axis=1)
        valid = ids < num_items
        gather = np.where(valid, ids, 0)
        exact = np.einsum("bsd,bd->bs", self.index.item_matrix[gather],
                          queries)
        exact[~valid] = -np.inf
        order = np.argsort(-exact, axis=1, kind="stable")[:, :k]
        top_items = np.take_along_axis(ids, order, axis=1)
        top_scores = np.take_along_axis(exact, order, axis=1).astype(np.float64)
        if top_items.shape[1] < k:  # fewer candidates than k: pad out
            pad = k - top_items.shape[1]
            top_items = np.pad(top_items, ((0, 0), (0, pad)),
                               constant_values=num_items)
            top_scores = np.pad(top_scores, ((0, 0), (0, pad)),
                                constant_values=-np.inf)
        top_items = np.where(np.isfinite(top_scores), top_items, -1)
        return top_items, top_scores

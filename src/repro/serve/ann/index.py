"""IVF-style inverted-file index over the item embedding table.

Build: k-means over the item embeddings (:func:`~repro.serve.ann.kmeans`,
seeded and deterministic) partitions the catalog into ``num_lists``
inverted lists; the catalog is reordered list-contiguously and stored
through a :class:`~repro.serve.ann.quant.QuantizedItems` codec
(float32 / int8).

Search: queries probe the ``nprobe`` lists whose centroids have the
highest inner product with the query (the standard MIPS heuristic over an
L2-trained coarse quantizer), and only those lists are scored. Scoring is
batched *by list*, not by user: every list probed by anyone in the block
is decoded once and hit with one small GEMM for all the users that probed
it, so per-query cost is O(nprobe · list_len · dim) with BLAS throughput
instead of O(catalog · dim).
"""

from __future__ import annotations

import numpy as np

from repro.serve.ann.kmeans import kmeans
from repro.serve.ann.quant import QuantizedItems


def default_num_lists(num_items: int) -> int:
    """The √J rule of thumb, clamped to [1, 1024]."""
    return max(1, min(int(round(float(num_items) ** 0.5)), 1024))


class IVFIndex:
    """Inverted lists + compressed rows for one item-table snapshot.

    Parameters
    ----------
    item_matrix:
        (J, D) item embedding table (the ``EmbeddingStore`` item matrix).
    num_lists:
        Inverted lists to build (default ``√J`` clamped to 1024).
    quant:
        Row codec: ``"none"`` (float32) or ``"int8"``.
    seed:
        Seeds the k-means coarse quantizer — same snapshot + seed →
        identical index.
    kmeans_iters / train_sample:
        Forwarded to :func:`~repro.serve.ann.kmeans.kmeans`.
    clustering:
        Optional precomputed ``(centroids, assignments)`` pair — lets
        several quantization levels share one k-means run (the benchmark
        sweep does this).
    """

    def __init__(self, item_matrix: np.ndarray, *, num_lists: int | None = None,
                 quant: str = "none", seed: int = 0, kmeans_iters: int = 15,
                 train_sample: int | None = 16384,
                 clustering: tuple[np.ndarray, np.ndarray] | None = None):
        item_matrix = np.ascontiguousarray(item_matrix, dtype=np.float32)
        if item_matrix.ndim != 2 or item_matrix.shape[0] == 0:
            raise ValueError("item_matrix must be a non-empty (J, D) matrix")
        self.num_items, self.dim = item_matrix.shape
        if num_lists is None:
            num_lists = default_num_lists(self.num_items)
        if clustering is not None:
            centroids, assign = clustering
            centroids = np.ascontiguousarray(centroids, dtype=np.float32)
            assign = np.asarray(assign, dtype=np.int64)
            if assign.shape != (self.num_items,):
                raise ValueError("clustering assignments must cover every item")
        else:
            centroids, assign = kmeans(item_matrix, num_lists, seed=seed,
                                       iters=kmeans_iters,
                                       train_sample=train_sample)
        self.num_lists = centroids.shape[0]
        self.seed = seed
        self.quant = quant
        self.centroids = centroids
        self._centroids_t = np.ascontiguousarray(centroids.T)
        # stable sort → items within a list stay in ascending id order
        self.perm = np.argsort(assign, kind="stable").astype(np.int64)
        self.list_sizes = np.bincount(assign, minlength=self.num_lists)
        self.list_offsets = np.concatenate(
            ([0], np.cumsum(self.list_sizes))).astype(np.int64)
        self.codes = QuantizedItems(item_matrix[self.perm], kind=quant)
        self.item_matrix = item_matrix

    # ------------------------------------------------------------------
    @property
    def compressed_nbytes(self) -> int:
        return self.codes.nbytes

    def probe(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """(B, nprobe) highest-inner-product lists per query row."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        nprobe = min(max(int(nprobe), 1), self.num_lists)
        affinity = queries @ self._centroids_t
        if nprobe < self.num_lists:
            return np.argpartition(affinity, self.num_lists - nprobe,
                                   axis=1)[:, -nprobe:]
        return np.broadcast_to(np.arange(self.num_lists),
                               affinity.shape).copy()

    # ------------------------------------------------------------------
    def search_block(self, queries: np.ndarray, nprobe: int,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score a query block against its probed lists.

        Returns ``(counts, items, scores)``: per-query candidate counts
        plus flat candidate item ids / compressed-domain scores,
        concatenated query by query (query ``b``'s segment is
        ``[counts[:b].sum(), counts[:b+1].sum())``). Every catalog item
        appears at most once per query (lists partition the catalog).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        num_queries = queries.shape[0]
        probe = self.probe(queries, nprobe)
        prepared = self.codes.prepare_queries(queries)

        sizes = self.list_sizes[probe]                      # (B, nprobe)
        counts = sizes.sum(axis=1)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        total = int(bounds[-1])
        items = np.empty(total, dtype=np.int64)
        scores = np.empty(total, dtype=np.float32)
        # destination start of every (query, probed list) segment: query
        # base + exclusive running sum of that query's earlier lists
        seg_start = (bounds[:-1][:, None]
                     + np.cumsum(sizes, axis=1) - sizes)    # (B, nprobe)

        # group the flat (query, list) pairs by list id so each probed
        # list is decoded once and scored with one GEMM for all takers
        flat_rows = np.repeat(np.arange(num_queries), probe.shape[1])
        order = np.argsort(probe.ravel(), kind="stable")
        sorted_lists = probe.ravel()[order]
        sorted_rows = flat_rows[order]
        sorted_starts = seg_start.ravel()[order]
        group_bounds = np.flatnonzero(
            np.diff(sorted_lists, prepend=-1, append=-2)).tolist()
        for g in range(len(group_bounds) - 1):
            lo, hi = group_bounds[g], group_bounds[g + 1]
            list_id = int(sorted_lists[lo])
            start = int(self.list_offsets[list_id])
            stop = int(self.list_offsets[list_id + 1])
            length = stop - start
            if length == 0:
                continue
            rows = sorted_rows[lo:hi]
            block = prepared[rows] @ self.codes.dense_slice(start, stop).T
            dest = sorted_starts[lo:hi][:, None] + np.arange(length)[None, :]
            scores[dest.ravel()] = block.ravel()
            items[dest] = self.perm[start:stop][None, :]
        return counts, items, scores

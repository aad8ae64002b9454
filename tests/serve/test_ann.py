"""Tests of the approximate retrieval stack: quantizers, k-means, IVF.

The acceptance contracts from ISSUE-6: quantization round-trip error is
bounded, k-means is deterministic under a fixed seed, the inverted lists
partition the catalog (every item exactly once), and the approximate
retriever degenerates to the exact one when nothing is approximated
(``nprobe = num_lists``, ``quant="none"``).
"""

import numpy as np
import pytest

from repro.serve import (
    ApproxRetriever,
    ExclusionMask,
    IVFIndex,
    MatrixBackend,
    ScorerBackend,
    TopKRetriever,
)
from repro.serve.ann import (
    QUANT_KINDS,
    QuantizedItems,
    default_num_lists,
    dequantize_int8,
    kmeans,
    quantize_int8,
)


@pytest.fixture
def tables(rng):
    user_matrix = rng.standard_normal((40, 8)).astype(np.float32)
    item_matrix = rng.standard_normal((120, 8)).astype(np.float32)
    return user_matrix, item_matrix


# ----------------------------------------------------------------------
# quantizers
# ----------------------------------------------------------------------
class TestQuantization:
    def test_int8_round_trip_error_bound(self, rng):
        matrix = rng.standard_normal((200, 16)).astype(np.float32) * 3.0
        codes, scale = quantize_int8(matrix)
        assert codes.dtype == np.int8
        assert scale.dtype == np.float32
        assert np.all(scale > 0)
        decoded = dequantize_int8(codes, scale)
        # symmetric rounding: at most half a quantization step per dim
        assert np.all(np.abs(decoded - matrix) <= scale[None, :] / 2 + 1e-7)

    def test_int8_extremes_map_to_127(self, rng):
        matrix = rng.standard_normal((50, 4)).astype(np.float32)
        codes, _ = quantize_int8(matrix)
        assert np.max(np.abs(codes), axis=0).tolist() == [127] * 4

    def test_int8_zero_column_survives(self):
        matrix = np.zeros((10, 3), dtype=np.float32)
        matrix[:, 0] = 1.0
        codes, scale = quantize_int8(matrix)
        np.testing.assert_allclose(dequantize_int8(codes, scale), matrix)

    def test_none_is_lossless_view(self, rng):
        matrix = rng.standard_normal((20, 4)).astype(np.float32)
        codec = QuantizedItems(matrix, kind="none")
        np.testing.assert_array_equal(codec.dense_slice(0, 20), matrix)
        np.testing.assert_array_equal(codec.dense_slice(3, 9), matrix[3:9])

    @pytest.mark.parametrize("kind", QUANT_KINDS)
    def test_scoring_contract(self, rng, kind):
        """prepare_queries(Q) @ dense_slice.T approximates Q @ rows.T."""
        matrix = rng.standard_normal((60, 8)).astype(np.float32)
        queries = rng.standard_normal((5, 8)).astype(np.float32)
        codec = QuantizedItems(matrix, kind=kind)
        approx = codec.prepare_queries(queries) @ codec.dense_slice(0, 60).T
        exact = queries @ matrix.T
        tol = {"none": 1e-6, "int8": 0.2}[kind]
        np.testing.assert_allclose(approx, exact, atol=tol)

    def test_compression_ratios(self, rng):
        matrix = rng.standard_normal((100, 16)).astype(np.float32)
        none = QuantizedItems(matrix, kind="none").nbytes
        int8 = QuantizedItems(matrix, kind="int8").nbytes
        assert int8 < none // 2  # 1 byte/coord + one scale row

    def test_unknown_kind_rejected(self, rng):
        for kind in ("int4", "fp16"):  # fp16 was a codec until PR 19
            with pytest.raises(ValueError, match="unknown quantization"):
                QuantizedItems(rng.standard_normal((4, 2)), kind=kind)


# ----------------------------------------------------------------------
# k-means
# ----------------------------------------------------------------------
class TestKMeans:
    def test_deterministic_under_fixed_seed(self, rng):
        points = rng.standard_normal((300, 6)).astype(np.float32)
        c1, a1 = kmeans(points, 8, seed=7)
        c2, a2 = kmeans(points, 8, seed=7)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_seed_changes_clustering(self, rng):
        points = rng.standard_normal((300, 6)).astype(np.float32)
        _, a1 = kmeans(points, 8, seed=0)
        _, a2 = kmeans(points, 8, seed=1)
        assert not np.array_equal(a1, a2)

    def test_recovers_separated_clusters(self, rng):
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
                           dtype=np.float32)
        labels = rng.integers(0, 3, 150)
        points = (centers[labels]
                  + 0.1 * rng.standard_normal((150, 2))).astype(np.float32)
        _, assign = kmeans(points, 3, seed=0)
        # same true center -> same learned cluster, pairwise
        for true in range(3):
            got = assign[labels == true]
            assert np.all(got == got[0])

    def test_clamps_clusters_to_points(self, rng):
        points = rng.standard_normal((5, 3)).astype(np.float32)
        centroids, assign = kmeans(points, 50, seed=0)
        assert centroids.shape[0] == 5
        assert sorted(set(assign.tolist())) == [0, 1, 2, 3, 4]

    def test_subsample_assigns_every_point(self, rng):
        points = rng.standard_normal((500, 4)).astype(np.float32)
        _, assign = kmeans(points, 6, seed=0, train_sample=100)
        assert assign.shape == (500,)
        assert np.all((assign >= 0) & (assign < 6))

    def test_empty_clusters_reseeded(self, rng):
        """Duplicate-heavy data empties clusters; reseeding must refill."""
        base = rng.standard_normal((4, 3)).astype(np.float32)
        points = np.concatenate([np.repeat(base, 30, axis=0),
                                 base + 5.0])  # 4 tight clumps + outliers
        _, assign = kmeans(points, 8, seed=0)
        # no cluster may end up empty — every centroid serves someone
        assert np.all(np.bincount(assign, minlength=8) > 0)

    def test_invalid_inputs_rejected(self, rng):
        with pytest.raises(ValueError, match="non-empty"):
            kmeans(np.empty((0, 3)), 2)
        with pytest.raises(ValueError, match="positive"):
            kmeans(rng.standard_normal((10, 2)), 0)


# ----------------------------------------------------------------------
# IVF index
# ----------------------------------------------------------------------
def _list_items(index, list_id):
    """Item ids assigned to one inverted list."""
    return index.perm[index.list_offsets[list_id]:index.list_offsets[list_id + 1]]


class TestIVFIndex:
    def test_lists_partition_catalog(self, tables):
        _, item_matrix = tables
        index = IVFIndex(item_matrix, num_lists=7)
        gathered = np.concatenate([_list_items(index, l)
                                   for l in range(index.num_lists)])
        # every item in exactly one list
        np.testing.assert_array_equal(np.sort(gathered),
                                      np.arange(item_matrix.shape[0]))
        assert index.list_sizes.sum() == item_matrix.shape[0]

    def test_list_items_ascend(self, tables):
        _, item_matrix = tables
        index = IVFIndex(item_matrix, num_lists=7)
        for l in range(index.num_lists):
            ids = _list_items(index, l)
            assert np.all(np.diff(ids) > 0) or ids.size <= 1

    def test_default_num_lists(self):
        assert default_num_lists(1) == 1
        assert default_num_lists(100) == 10
        assert default_num_lists(100_000) == 316
        assert default_num_lists(10**9) == 1024  # clamped

    def test_search_block_covers_all_items_when_exhaustive(self, tables):
        user_matrix, item_matrix = tables
        index = IVFIndex(item_matrix, num_lists=5)
        queries = user_matrix[:3]
        counts, items, scores = index.search_block(queries, index.num_lists)
        assert np.all(counts == item_matrix.shape[0])
        bounds = np.concatenate(([0], np.cumsum(counts)))
        for b in range(3):
            seg = items[bounds[b]:bounds[b + 1]]
            np.testing.assert_array_equal(np.sort(seg),
                                          np.arange(item_matrix.shape[0]))
            np.testing.assert_allclose(
                scores[bounds[b]:bounds[b + 1]][np.argsort(seg)],
                queries[b] @ item_matrix.T, rtol=1e-4, atol=1e-5)

    def test_shared_clustering_across_quants(self, tables):
        _, item_matrix = tables
        clustering = kmeans(item_matrix, 6, seed=0)
        built = [IVFIndex(item_matrix, quant=q, clustering=clustering)
                 for q in QUANT_KINDS]
        for index in built[1:]:
            np.testing.assert_array_equal(index.perm, built[0].perm)

    def test_invalid_inputs_rejected(self, tables, rng):
        _, item_matrix = tables
        with pytest.raises(ValueError, match="non-empty"):
            IVFIndex(np.empty((0, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="cover every item"):
            IVFIndex(item_matrix,
                     clustering=(rng.standard_normal((3, 8)),
                                 np.zeros(5, dtype=np.int64)))


# ----------------------------------------------------------------------
# approximate retriever
# ----------------------------------------------------------------------
class TestApproxRetriever:
    def test_exhaustive_unquantized_matches_exact(self, tables):
        backend = MatrixBackend(*tables)
        exact = TopKRetriever(backend).retrieve(np.arange(40), k=10)
        index = IVFIndex(backend.item_matrix, num_lists=6)
        approx = ApproxRetriever(backend, index, nprobe=index.num_lists)
        result = approx.retrieve(np.arange(40), k=10)
        np.testing.assert_array_equal(result.items, exact.items)
        np.testing.assert_allclose(result.scores, exact.scores, rtol=1e-5)

    def test_exhaustive_matches_exact_with_exclusions(self, tables, rng):
        user_matrix, item_matrix = tables
        seen_users = np.repeat(np.arange(40), 5)
        seen_items = rng.integers(0, 120, seen_users.size)
        exclude = ExclusionMask.from_pairs(seen_users, seen_items, 40, 120)
        backend = MatrixBackend(user_matrix, item_matrix)
        exact = TopKRetriever(backend, exclude=exclude).retrieve(
            np.arange(40), k=10)
        index = IVFIndex(item_matrix, num_lists=6)
        approx = ApproxRetriever(backend, index, exclude=exclude,
                                 nprobe=index.num_lists)
        result = approx.retrieve(np.arange(40), k=10)
        np.testing.assert_array_equal(result.items, exact.items)
        np.testing.assert_allclose(result.scores, exact.scores, rtol=1e-5)

    def test_excluded_items_never_surface(self, tables, rng):
        user_matrix, item_matrix = tables
        seen_users = np.repeat(np.arange(40), 20)
        seen_items = rng.integers(0, 120, seen_users.size)
        exclude = ExclusionMask.from_pairs(seen_users, seen_items, 40, 120)
        backend = MatrixBackend(user_matrix, item_matrix)
        approx = ApproxRetriever(backend, exclude=exclude, nprobe=3,
                                 quant="int8")
        result = approx.retrieve(np.arange(40), k=10)
        seen = set(zip(seen_users.tolist(), seen_items.tolist()))
        for u in range(40):
            for item in result.items[u]:
                if item >= 0:
                    assert (u, int(item)) not in seen

    @pytest.mark.parametrize("quant", QUANT_KINDS)
    def test_quantized_recall_is_high(self, tables, quant):
        backend = MatrixBackend(*tables)
        exact = TopKRetriever(backend).retrieve(np.arange(40), k=10)
        approx = ApproxRetriever(backend, nprobe=10**9, quant=quant)
        result = approx.retrieve(np.arange(40), k=10)
        # exhaustive probing: the exact re-rank must absorb nearly all
        # compression error at shortlist width 4k
        overlap = np.mean([np.intersect1d(a, e).size / 10.0
                           for a, e in zip(result.items, exact.items)])
        assert overlap >= 0.95

    def test_returned_scores_are_exact(self, tables):
        """Re-ranked scores are float products, not compressed-domain."""
        user_matrix, item_matrix = tables
        backend = MatrixBackend(user_matrix, item_matrix)
        approx = ApproxRetriever(backend, nprobe=4, quant="int8")
        result = approx.retrieve([0, 1], k=5)
        for row, user in enumerate([0, 1]):
            expected = (user_matrix[user] @ item_matrix.T)[result.items[row]]
            np.testing.assert_allclose(result.scores[row], expected,
                                       rtol=1e-5)

    def test_small_batches_match_one_shot(self, tables):
        backend = MatrixBackend(*tables)
        index = IVFIndex(backend.item_matrix, num_lists=6)
        one = ApproxRetriever(backend, index, nprobe=3)
        many = ApproxRetriever(backend, index, nprobe=3, batch_users=7)
        users = np.arange(40)
        a, b = one.retrieve(users, k=8), many.retrieve(users, k=8)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_k_larger_than_catalog_pads(self, rng):
        backend = MatrixBackend(rng.standard_normal((4, 3)),
                                rng.standard_normal((6, 3)))
        result = ApproxRetriever(backend, nprobe=10).retrieve([0], k=50)
        assert result.items.shape == (1, 6)

    def test_low_nprobe_pads_when_lists_run_dry(self, rng):
        # 2 items in ~2 lists: probing one list cannot fill k=5
        backend = MatrixBackend(rng.standard_normal((3, 4)),
                                rng.standard_normal((2, 4)))
        index = IVFIndex(backend.item_matrix, num_lists=2)
        result = ApproxRetriever(backend, index, nprobe=1).retrieve([0], k=5)
        valid = result.items[0] >= 0
        assert np.all(np.isfinite(result.scores[0][valid]))
        assert np.all(result.items[0][~valid] == -1)
        assert np.all(np.isneginf(result.scores[0][~valid]))

    def test_single_user_int(self, tables):
        backend = MatrixBackend(*tables)
        result = ApproxRetriever(backend).retrieve(3, k=4)
        assert result.items.shape == (1, 4)

    def test_validation(self, tables, rng):
        backend = MatrixBackend(*tables)

        class Dot:
            num_users, num_items = 40, 120

            def score(self, users, items):
                return np.zeros(len(users))

        with pytest.raises(ValueError, match="matrix backend"):
            ApproxRetriever(ScorerBackend(Dot()))
        with pytest.raises(ValueError, match="covers"):
            ApproxRetriever(backend,
                            IVFIndex(rng.standard_normal((7, 8)), num_lists=2))
        with pytest.raises(ValueError, match="batch_users"):
            ApproxRetriever(backend, batch_users=0)
        with pytest.raises(ValueError, match="nprobe"):
            ApproxRetriever(backend, nprobe=0)
        with pytest.raises(ValueError, match="shortlist_k"):
            ApproxRetriever(backend, shortlist_k=0)
        with pytest.raises(ValueError, match="k must be positive"):
            ApproxRetriever(backend).retrieve([0], k=0)

    def test_shortlist_k_floor_is_k(self, tables):
        """An undersized shortlist still returns k items."""
        backend = MatrixBackend(*tables)
        approx = ApproxRetriever(backend, nprobe=10**9, shortlist_k=1)
        assert np.all(approx.retrieve([0, 1], k=7).items >= 0)

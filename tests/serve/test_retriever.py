"""Tests of the blocked top-K retriever, backends, and exclusion masks."""

import numpy as np
import pytest

from repro.serve import (
    ExclusionMask,
    MatrixBackend,
    ScorerBackend,
    TopKRetriever,
    backend_for,
)
from repro.serve.retriever import TRANSPOSE_BLOCK_ROWS


@pytest.fixture
def tables(rng):
    user_matrix = rng.standard_normal((25, 8))
    item_matrix = rng.standard_normal((40, 8))
    return user_matrix, item_matrix


def brute_force_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Reference selection: full stable argsort on (-score, item id)."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


class TestMatrixBackend:
    def test_matches_dense_product(self, tables):
        user_matrix, item_matrix = tables
        backend = MatrixBackend(user_matrix, item_matrix)
        users = np.array([3, 0, 7])
        np.testing.assert_allclose(backend.score_block(users),
                                   user_matrix[users] @ item_matrix.T)

    def test_pairs_match_block(self, tables):
        backend = MatrixBackend(*tables)
        users = np.array([1, 2, 3])
        items = np.array([10, 20, 30])
        block = backend.score_block(users)
        np.testing.assert_allclose(backend.score_pairs(users, items),
                                   block[np.arange(3), items])

    def test_dtype_cast(self, tables):
        backend = MatrixBackend(*tables, dtype="float32")
        assert backend.user_matrix.dtype == np.float32
        assert backend.score_block(np.array([0])).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 48])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1, "3b+7"])
    def test_blocked_transpose_is_the_contiguous_one(self, rng, dtype, dim,
                                                     offset):
        block = TRANSPOSE_BLOCK_ROWS
        num_items = {None: 1, "3b+7": 3 * block + 7}.get(offset)
        if num_items is None:
            num_items = block + offset
        item_matrix = rng.standard_normal((num_items, dim)).astype(dtype)
        user_matrix = rng.standard_normal((5, dim)).astype(dtype)
        backend = MatrixBackend(user_matrix, item_matrix)
        want = np.ascontiguousarray(item_matrix.T)
        assert backend._item_t.flags.c_contiguous
        assert backend._item_t.dtype == dtype
        np.testing.assert_array_equal(backend._item_t, want)
        np.testing.assert_array_equal(backend.item_matrix, item_matrix)
        queries = user_matrix[[4, 0, 2]]
        out = np.empty((3, num_items), dtype=dtype)
        assert backend.score_queries(queries, out=out) is out
        np.testing.assert_array_equal(out, queries @ want)
        users = np.array([0, 1, 4, 4])
        items = np.array([0, num_items - 1, num_items // 2, 0])
        np.testing.assert_array_equal(
            backend.score_pairs(users, items),
            np.einsum("bd,bd->b", user_matrix[users], want.T[items]))

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            MatrixBackend(rng.standard_normal((4, 3)),
                          rng.standard_normal((5, 7)))


class TestScorerBackend:
    def test_matches_model_score(self, tables):
        user_matrix, item_matrix = tables

        class DotModel:
            num_users, num_items = user_matrix.shape[0], item_matrix.shape[0]

            def score(self, users, items):
                return np.sum(user_matrix[users] * item_matrix[items], axis=1)

        brute = ScorerBackend(DotModel())
        fast = MatrixBackend(user_matrix, item_matrix)
        users = np.array([0, 5, 11])
        np.testing.assert_allclose(brute.score_block(users),
                                   fast.score_block(users))

    def test_requires_num_items(self):
        class Bare:
            def score(self, users, items):
                return np.zeros(len(users))

        with pytest.raises(ValueError):
            ScorerBackend(Bare())
        assert ScorerBackend(Bare(), num_items=7).num_items == 7


class TestBackendFor:
    def test_factored_model_gets_matrix(self, tables):
        user_matrix, item_matrix = tables

        class Factored:
            def serving_embeddings(self):
                return user_matrix, item_matrix

        assert isinstance(backend_for(Factored()), MatrixBackend)

    def test_plain_scorer_gets_brute_force(self):
        class Plain:
            num_items = 9

            def score(self, users, items):
                return np.zeros(len(users))

        assert isinstance(backend_for(Plain()), ScorerBackend)


class TestExclusionMask:
    def test_apply_stamps_exactly_the_pairs(self, rng):
        num_users, num_items = 12, 20
        users = rng.integers(0, num_users, 30)
        items = rng.integers(0, num_items, 30)
        mask = ExclusionMask.from_pairs(users, items, num_users, num_items)
        block_users = np.arange(num_users)
        scores = np.zeros((num_users, num_items))
        mask.apply(block_users, scores)
        excluded = set(zip(users.tolist(), items.tolist()))
        for u in range(num_users):
            for i in range(num_items):
                expected = -np.inf if (u, i) in excluded else 0.0
                assert scores[u, i] == expected, (u, i)

    def test_from_dataset_target_vs_all(self, tiny_dataset):
        target = ExclusionMask.from_dataset(tiny_dataset, behaviors="target")
        every = ExclusionMask.from_dataset(tiny_dataset, behaviors="all")
        # user 0: bought {0, 1}, viewed {0, 1} → same; user 2 bought {3},
        # viewed {3} → same; user 1 bought {2}, viewed {1, 2}
        assert set(target.gather([1])[1].tolist()) == {2}
        assert set(every.gather([1])[1].tolist()) == {1, 2}
        assert every.counts(np.arange(4)).sum() >= target.counts(np.arange(4)).sum()

    def test_empty_users_are_noops(self):
        mask = ExclusionMask.from_pairs(np.array([], dtype=np.int64),
                                        np.array([], dtype=np.int64), 3, 4)
        scores = np.ones((2, 4))
        mask.apply(np.array([0, 2]), scores)
        assert np.isfinite(scores).all()


class TestTopKRetriever:
    def test_agrees_with_brute_force_argsort(self, tables, rng):
        backend = MatrixBackend(*tables)
        retriever = TopKRetriever(backend, batch_users=7)
        users = np.arange(backend.num_users)
        result = retriever.retrieve(users, k=5)
        expected = brute_force_topk(
            np.asarray(backend.score_block(users), dtype=np.float64), 5)
        np.testing.assert_array_equal(result.items, expected)

    def test_batch_size_invariant(self, tables):
        backend = MatrixBackend(*tables)
        users = np.arange(backend.num_users)
        small = TopKRetriever(backend, batch_users=3).retrieve(users, 6)
        big = TopKRetriever(backend, batch_users=1000).retrieve(users, 6)
        np.testing.assert_array_equal(small.items, big.items)
        np.testing.assert_allclose(small.scores, big.scores)

    def test_scratch_sized_to_the_request(self, tables):
        """A one-user request scores into a one-row buffer, not a whole
        chunk's, and its answer is that row's own product, ranked."""
        backend = MatrixBackend(*tables)
        retriever = TopKRetriever(backend, batch_users=16)
        chunk, scratch = retriever._chunk_rows(backend.num_items, 1)
        assert (chunk, scratch.shape) == (16, (1, backend.num_items))
        assert retriever._chunk_rows(backend.num_items, 40)[1].shape[0] == 16
        for user in (0, 7, 24):
            alone = retriever.retrieve(np.array([user]), k=6)
            row = backend.score_block(np.array([user]))[0]
            assert (alone.items[0] == brute_force_topk(row[None], 6)[0]).all()
            assert (alone.scores[0] == row[alone.items[0]]).all()

    def test_never_leaks_excluded_items(self, tables, rng):
        user_matrix, item_matrix = tables
        num_users, num_items = user_matrix.shape[0], item_matrix.shape[0]
        seen_users = rng.integers(0, num_users, 120)
        seen_items = rng.integers(0, num_items, 120)
        mask = ExclusionMask.from_pairs(seen_users, seen_items,
                                        num_users, num_items)
        retriever = TopKRetriever(MatrixBackend(user_matrix, item_matrix),
                                  exclude=mask, batch_users=8)
        result = retriever.retrieve(np.arange(num_users), k=10)
        for row, user in enumerate(result.users):
            leaked = set(result.items[row].tolist()) & set(
                mask.gather([user])[1].tolist())
            assert not leaked, f"user {user} leaked {leaked}"

    def test_exhausted_catalog_pads_with_minus_one(self, tables):
        user_matrix, item_matrix = tables
        num_items = item_matrix.shape[0]
        # user 0 has seen everything but items 2 and 5
        seen = np.setdiff1d(np.arange(num_items), [2, 5])
        mask = ExclusionMask.from_pairs(np.zeros(seen.size, dtype=np.int64),
                                        seen, user_matrix.shape[0], num_items)
        retriever = TopKRetriever(MatrixBackend(user_matrix, item_matrix),
                                  exclude=mask)
        result = retriever.retrieve(np.array([0]), k=4)
        valid = result.items[0][result.items[0] >= 0]
        assert set(valid.tolist()) == {2, 5}
        assert (result.items[0][2:] == -1).all()
        assert np.isneginf(result.scores[0][2:]).all()
        assert result.as_lists()[0][0][0] in (2, 5)

    def test_k_larger_than_catalog_clamped(self, tables):
        backend = MatrixBackend(*tables)
        result = TopKRetriever(backend).retrieve(np.array([1]), k=10_000)
        assert result.k == backend.num_items

    def test_scalar_user_accepted(self, tables):
        result = TopKRetriever(MatrixBackend(*tables)).retrieve(4, k=3)
        assert result.users.tolist() == [4]
        assert result.items.shape == (1, 3)

    def test_invalid_arguments(self, tables):
        backend = MatrixBackend(*tables)
        with pytest.raises(ValueError):
            TopKRetriever(backend, batch_users=0)
        with pytest.raises(ValueError):
            TopKRetriever(backend).retrieve(np.array([0]), k=0)

    def test_payload_shape(self, tables):
        result = TopKRetriever(MatrixBackend(*tables)).retrieve(
            np.array([0, 1]), k=3)
        payload = result.to_payload()
        assert [entry["user"] for entry in payload] == [0, 1]
        assert all(len(entry["items"]) == 3 for entry in payload)
        assert {"item", "score"} <= set(payload[0]["items"][0])

"""Tests of the RecommendationService facade."""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split
from repro.models import BiasMF
from repro.serve import RecommendationService


@pytest.fixture(scope="module")
def split(small_taobao):
    return leave_one_out_split(small_taobao)


@pytest.fixture(scope="module")
def gnmr(split):
    return GNMR(split.train, GNMRConfig(pretrain=False, seed=0))


class TestRecommend:
    def test_excludes_training_positives(self, gnmr, split):
        service = RecommendationService(gnmr, train=split.train)
        result = service.recommend(np.arange(split.train.num_users), k=10)
        for row, user in enumerate(result.users):
            seen = set(split.train.user_target_items(int(user)).tolist())
            assert not (set(result.items[row].tolist()) & seen)

    def test_matches_legacy_recommend(self, gnmr, split):
        """The batched path agrees with the per-user brute-force API."""
        service = RecommendationService(gnmr, train=None, dtype=None,
                                        exclude=None)
        result = service.recommend(np.array([0, 5]), k=5)
        for row, user in enumerate(result.users):
            legacy = gnmr.recommend(int(user), top_n=5)
            assert [item for item, _ in legacy] == result.items[row].tolist()

    def test_brute_force_fallback(self, split):
        model = BiasMF(split.train.num_users, split.train.num_items, seed=0)
        service = RecommendationService(model, train=split.train)
        assert service.store is None
        result = service.recommend(np.array([0, 1]), k=4)
        assert result.items.shape == (2, 4)
        for row, user in enumerate(result.users):
            seen = set(split.train.user_target_items(int(user)).tolist())
            assert not (set(result.items[row].tolist()) & seen)


class TestReload:
    def test_auto_refresh_on_version_bump(self, split):
        """Freshness is explicit: a request never reloads, refresh() does."""
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=4))
        service = RecommendationService(model, train=split.train)
        v0 = service.snapshot_version
        before = service.recommend(np.array([0]), k=5)
        model.user_embeddings.data *= -1.0  # drastic "training" change
        model.on_step_end()
        stale = service.recommend(np.array([0]), k=5)
        assert stale.version == before.version == v0
        np.testing.assert_array_equal(stale.scores, before.scores)
        assert service.refresh() is True
        after = service.recommend(np.array([0]), k=5)
        assert after.version == service.snapshot_version
        assert service.snapshot_version == model.engine.version != v0
        assert not np.allclose(before.scores, after.scores)

    def test_manual_warm_and_cold_reload(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=5))
        service = RecommendationService(model, train=split.train)
        model.user_embeddings.data += 1.0
        model.on_step_end()
        old_store = service.store
        service.reload()
        assert service.store is not old_store
        assert service.snapshot_version == model.engine.version
        assert service.refresh() is False          # nothing left to catch up
        assert service.retriever.exclude is service.exclusions
        assert service.retriever.backend is service.store.backend()

    def test_reload_hashes_each_table_pair_once(self, split, monkeypatch):
        """One swap hashes the incoming tables (their fingerprint) and the
        outgoing ones (are they still what was snapshotted?) — the archived
        copy carries the hash just verified instead of computing a third."""
        from repro.serve import SnapshotIntegrityError
        from repro.serve import store as store_module

        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=5))
        service = RecommendationService(model, train=split.train)
        hashed = []
        real = store_module.array_sha256
        monkeypatch.setattr(
            store_module, "array_sha256",
            lambda *arrays: hashed.append(arrays) or real(*arrays))
        outgoing = service.store
        service.reload()
        assert len(hashed) == 2
        assert [arrays[0] is outgoing.user_matrix for arrays in hashed] == \
            [False, True]
        archived = service._archive[-1]
        assert archived.user_matrix is outgoing.user_matrix
        assert archived.content_hash == outgoing.content_hash
        assert archived._backend is None and archived._ann_indexes == {}
        # and a mutated outgoing snapshot is still neither archived nor
        # replaced
        served = service.store
        served.item_matrix[0, 0] += 1.0
        with pytest.raises(SnapshotIntegrityError):
            service.reload()
        assert service.store is served
        assert service.archived_versions() == [outgoing.version]

    def test_removed_options_are_type_errors(self, gnmr, split):
        with pytest.raises(TypeError):
            RecommendationService(gnmr, train=split.train, auto_refresh=False)
        service = RecommendationService(gnmr, train=split.train)
        with pytest.raises(TypeError):
            service.reload(cold=True)


class TestApproxServing:
    def test_ivf_matches_exact_when_exhaustive(self, gnmr, split):
        exact = RecommendationService(gnmr, train=split.train)
        num_lists = exact.store.ann_index().num_lists
        ivf = RecommendationService(gnmr, train=split.train,
                                    retriever="ivf",
                                    ann={"nprobe": num_lists})
        users = np.arange(split.train.num_users)
        a = ivf.recommend(users, k=10)
        b = exact.recommend(users, k=10)
        np.testing.assert_array_equal(a.items, b.items)

    def test_ivf_builds_no_exact_backend(self, gnmr, split, monkeypatch):
        """An IVF service reads the store's user rows; the exact backend's
        transposed catalog copy is made only when something scans exactly."""
        from repro.serve import ApproxRetriever, MatrixBackend

        built = []
        init = MatrixBackend.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MatrixBackend, "__init__", counted)
        ann = {"nprobe": 2, "quant": "int8"}
        service = RecommendationService(gnmr, train=split.train,
                                        retriever="ivf", ann=ann)
        users = np.arange(split.train.num_users)
        got = service.recommend(users, k=10)
        got_cold = service.recommend_cold(users, k=10)
        assert built == [] and service.store._backend is None
        store = service.store
        index = store.ann_index(quant="int8")
        over_backend = ApproxRetriever(store.backend(), index, nprobe=2,
                                       exclude=service.exclusions)
        assert len(built) == 1
        want = over_backend.retrieve(users, k=10)
        np.testing.assert_array_equal(got.items, want.items)
        np.testing.assert_array_equal(got.scores, want.scores)
        np.testing.assert_array_equal(got_cold.items, want.items)

    def test_ivf_excludes_training_positives(self, gnmr, split):
        service = RecommendationService(gnmr, train=split.train,
                                        retriever="ivf",
                                        ann={"nprobe": 2, "quant": "int8"})
        result = service.recommend(np.arange(split.train.num_users), k=10)
        for row, user in enumerate(result.users):
            seen = set(split.train.user_target_items(int(user)).tolist())
            assert not (set(result.items[row].tolist()) & seen)

    def test_ivf_index_follows_snapshot(self, split):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=6))
        service = RecommendationService(model, train=split.train,
                                        retriever="ivf")
        index_before = service.retriever.index
        model.user_embeddings.data *= -1.0
        model.on_step_end()
        assert service.refresh() is True
        assert service.retriever.index is not index_before
        assert service.snapshot_version == model.engine.version

    def test_cold_matches_warm_when_fresh(self, gnmr, split):
        """The cold path asks the configured retriever, not an exact scan
        of its own: on a fresh snapshot it returns what the warm path does."""
        service = RecommendationService(gnmr, train=split.train,
                                        retriever="ivf",
                                        ann={"nprobe": 2, "quant": "int8"})
        users = np.arange(split.train.num_users)
        warm = service.recommend(users, k=10)
        cold = service.recommend_cold(users, k=10)
        np.testing.assert_array_equal(cold.items, warm.items)
        np.testing.assert_allclose(cold.scores, warm.scores, rtol=1e-5)
        assert cold.version == warm.version == service.snapshot_version
        exact = RecommendationService(gnmr, train=split.train)
        assert not np.array_equal(exact.recommend(users, k=10).items,
                                  warm.items)  # nprobe=2 is lossy here

    @pytest.mark.parametrize("ann", [{"nprob": 4},
                                     {"nprobe": 4, "eval_k": 100}])
    def test_unknown_ann_option_rejected(self, gnmr, split, ann):
        with pytest.raises(ValueError, match="unknown ann option") as info:
            RecommendationService(gnmr, train=split.train, retriever="ivf",
                                  ann=ann)
        for accepted in ("nprobe", "quant", "num_lists", "shortlist_k",
                         "seed"):
            assert accepted in str(info.value)

    def test_ivf_needs_factored_model(self, split):
        model = BiasMF(split.train.num_users, split.train.num_items, seed=0)
        with pytest.raises(ValueError, match="factored"):
            RecommendationService(model, train=split.train, retriever="ivf")

    def test_unknown_retriever_rejected(self, gnmr, split):
        with pytest.raises(ValueError, match="unknown retriever"):
            RecommendationService(gnmr, train=split.train, retriever="hnsw")

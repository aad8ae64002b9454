"""Tests of model checkpointing (state_dict ↔ artifact file)."""

import numpy as np
import pytest

from repro.nn import MLP
from repro.tensor import Tensor
from repro.utils import load_checkpoint, save_checkpoint


@pytest.fixture
def model():
    return MLP([4, 6, 2], rng=np.random.default_rng(0))


class TestRoundtrip:
    def test_parameters_restored(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ckpt")
        assert path.suffix == ".npz"
        clone = MLP([4, 6, 2], rng=np.random.default_rng(999))
        load_checkpoint(clone, path)
        x = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_metadata_roundtrip(self, model, tmp_path):
        save_checkpoint(model, tmp_path / "c.npz",
                        metadata={"epoch": 7, "hr10": 0.42})
        meta = load_checkpoint(model, tmp_path / "c.npz")
        assert meta["epoch"] == 7
        assert meta["hr10"] == 0.42
        assert meta["num_parameters"] == model.num_parameters()

    def test_load_without_suffix(self, model, tmp_path):
        save_checkpoint(model, tmp_path / "plain")
        meta = load_checkpoint(model, tmp_path / "plain")
        assert "num_parameters" in meta

    def test_creates_parent_dirs(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "deep" / "nested" / "m.npz")
        assert path.exists()

    def test_gnmr_checkpoint(self, tmp_path, small_taobao):
        from repro.core import GNMR, GNMRConfig

        model = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=1))
        save_checkpoint(model, tmp_path / "gnmr", metadata={"dataset": "t"})
        clone = GNMR(small_taobao, GNMRConfig(pretrain=False, seed=2))
        load_checkpoint(clone, tmp_path / "gnmr")
        users, items = np.array([0, 1]), np.array([2, 3])
        np.testing.assert_allclose(model.score(users, items),
                                   clone.score(users, items))


class TestIntegrity:
    """Damaged, edited and pre-manifest checkpoints: tests/utils/test_artifact.py
    (every artifact kind shares the container, so they share the suite)."""

    def test_array_sha256_sensitive_to_dtype_and_shape(self):
        from repro.utils import array_sha256

        a = np.arange(6, dtype=np.float64)
        assert array_sha256(a) != array_sha256(a.astype(np.float32))
        assert array_sha256(a) != array_sha256(a.reshape(2, 3))
        assert array_sha256(a) == array_sha256(a.copy())


class TestLoadIntoAServedModel:
    """Loading parameters changes them: a model that has already served
    drops what it cached from the old ones, its engine version moves, and
    a service over it swaps on the next refresh."""

    @staticmethod
    def _models(dataset, name):
        from repro.core import GNMR, GNMRConfig
        from repro.models import NGCF

        if name == "GNMR":
            return [GNMR(dataset, GNMRConfig(pretrain=False, seed=seed))
                    for seed in (1, 2)]
        return [NGCF(dataset, seed=seed) for seed in (1, 2)]

    @pytest.mark.parametrize("verify", [True, False])
    @pytest.mark.parametrize("name", ["GNMR", "NGCF"])
    def test_served_model_serves_the_loaded_parameters(
            self, small_taobao, tmp_path, name, verify):
        from repro.serve import RecommendationService

        source, served = self._models(small_taobao, name)
        path = save_checkpoint(source, tmp_path / "m.npz")
        service = RecommendationService(served, train=small_taobao,
                                        dtype=None)
        version = served.engine.version
        load_checkpoint(served, path, verify=verify)
        assert served.engine.version != version
        for got, want in zip(served.serving_embeddings(),
                             source.serving_embeddings()):
            np.testing.assert_array_equal(got, want)
        assert service.refresh()
        users = np.arange(6)
        expected = RecommendationService(source, train=small_taobao,
                                         dtype=None).recommend(users, k=5)
        np.testing.assert_array_equal(service.recommend(users, k=5).items,
                                      expected.items)

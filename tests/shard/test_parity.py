"""The sharded-table bit-parity contract, end to end.

ISSUE-5 acceptance criteria, each enforced here:

* ``shards=1`` bit-matches the unsharded path on the float64 goldens
  (the same recorded scores ``tests/tensor/test_dtype.py`` pins for the
  plain models);
* ``shards=K`` matches ``shards=1`` *exactly* under SGD;
* under Adam, ``shards=K`` matches within the documented tolerance
  (``docs/training.md``: 1e-12 on float64 parameters — the lazy per-row
  updates make it bit-exact in practice, which the test also records).
"""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.models import BiasMF, NCFGMF, NGCF, NeuMF
from repro.serve import EmbeddingStore
from repro.shard import table_array
from repro.train import TrainConfig, Trainer

#: documented Adam parity tolerance on float64 parameters (see
#: docs/training.md "Sharded embedding tables")
ADAM_TOL = 1e-12


@pytest.fixture(scope="module")
def tiny_split():
    return leave_one_out_split(taobao_like(num_users=50, num_items=120, seed=0))


def _train_gnmr(split, shards, *, propagation="async", workers=0,
                optimizer="adam", strategy="range", epochs=2):
    config = GNMRConfig(pretrain=False, seed=0, num_layers=2, dropout=0.0,
                        shards=shards, shard_strategy=strategy)
    model = GNMR(split.train, config)
    tc = TrainConfig(epochs=epochs, steps_per_epoch=4, batch_users=8,
                     per_user=2, propagation=propagation, workers=workers,
                     fanout=5, seed=0, optimizer=optimizer)
    losses = Trainer(model, split.train, tc).run().series("loss")
    return model, losses


def _tables(model):
    return (table_array(model.user_embeddings),
            table_array(model.item_embeddings))


class TestGoldenParity:
    """shards=1 (and K) reproduce the recorded float64 seed goldens.

    The golden arrays are the ones ``tests/tensor/test_dtype.py`` pins for
    the *unsharded* models (same dataset, same seed) — scoring through the
    sharded tables must reproduce them bit for bit.
    """

    GNMR_GOLDEN = np.array([
        0.32729831588482305, -0.037324087565587964, -0.07302223270344582,
        -0.04509849138475442, 0.2542494706788363, 0.522932900736781,
        -0.018301873393090477, 0.37108517224946636,
    ])
    NGCF_GOLDEN = np.array([
        0.021098157681668374, -0.12854861938771572, 0.15116226220590295,
        -0.03985173114034231, 0.06980060167427604, -0.10979619558273532,
        0.06382377564325978, -0.1428940685413741,
    ])

    @pytest.fixture(scope="class")
    def golden_dataset(self):
        return taobao_like(num_users=40, num_items=60, seed=3)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_gnmr_scores_match_float64_golden(self, golden_dataset, shards):
        model = GNMR(golden_dataset,
                     GNMRConfig(pretrain=False, seed=0, num_layers=2,
                                shards=shards))
        model.eval()
        scores = model.score(np.arange(8), np.arange(8, 16))
        assert (scores == self.GNMR_GOLDEN).all(), (
            f"shards={shards} broke float64 golden parity: max diff "
            f"{np.abs(scores - self.GNMR_GOLDEN).max():.3e}")

    @pytest.mark.parametrize("shards", [1, 2])
    def test_ngcf_scores_match_float64_golden(self, golden_dataset, shards):
        model = NGCF(golden_dataset, embedding_dim=8, num_layers=2, seed=0,
                     shards=shards)
        model.eval()
        scores = model.score(np.arange(8), np.arange(8, 16))
        assert (scores == self.NGCF_GOLDEN).all()


class TestTrainingParity:
    """Whole training runs: sharded vs unsharded state, per optimizer."""

    def test_shards1_bit_matches_unsharded_trajectory(self, tiny_split):
        plain, losses_plain = _train_gnmr(tiny_split, None)
        model_1, losses_1 = _train_gnmr(tiny_split, 1)
        assert losses_plain == losses_1
        for a, b in zip(_tables(plain), _tables(model_1)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    @pytest.mark.parametrize("propagation, workers",
                             [("full", 0), ("async", 0), ("async", 1)])
    def test_shardsK_exact_under_sgd(self, tiny_split, strategy, propagation,
                                     workers):
        ref, _ = _train_gnmr(tiny_split, 1, optimizer="sgd",
                             propagation=propagation, workers=workers)
        sharded, _ = _train_gnmr(tiny_split, 3, optimizer="sgd",
                                 strategy=strategy, propagation=propagation,
                                 workers=workers)
        for a, b in zip(_tables(ref), _tables(sharded)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_shardsK_within_tolerance_under_adam(self, tiny_split, workers):
        ref, _ = _train_gnmr(tiny_split, 1, optimizer="adam", workers=workers)
        sharded, _ = _train_gnmr(tiny_split, 3, optimizer="adam",
                                 workers=workers)
        for a, b in zip(_tables(ref), _tables(sharded)):
            assert np.max(np.abs(a - b)) <= ADAM_TOL

    def test_baselines_mini_batch_parity_under_sgd(self, tiny_split):
        data = tiny_split.train

        def run(model):
            tc = TrainConfig(epochs=2, steps_per_epoch=4, batch_users=8,
                             per_user=2, propagation="async", workers=0,
                             seed=0, optimizer="sgd")
            Trainer(model, data, tc).run()
            return model.state_dict()

        makers = {
            "BiasMF": lambda s: BiasMF(data.num_users, data.num_items,
                                       seed=0, shards=s),
            "NCF-G": lambda s: NCFGMF(data.num_users, data.num_items,
                                      seed=0, shards=s),
            "NCF-N": lambda s: NeuMF(data.num_users, data.num_items,
                                     seed=0, shards=s),
            "NGCF": lambda s: NGCF(data, seed=0, num_layers=1, shards=s),
        }
        for name, make in makers.items():
            plain = run(make(None))
            sharded = run(make(2))
            # state-dict keys differ (per-shard blocks); compare by scoring
            model_a, model_b = make(None), make(2)
            model_a.load_state_dict(plain)
            model_b.load_state_dict(sharded)
            users = np.arange(10)
            items = np.arange(10, 20)
            np.testing.assert_array_equal(
                model_a.score(users, items), model_b.score(users, items),
                err_msg=f"{name}: sharded SGD diverged from unsharded")


class TestServingSnapshot:
    def test_snapshot_of_sharded_model_bit_equals_unsharded(self, tiny_split):
        # SGD: the exact side of the parity contract
        plain, _ = _train_gnmr(tiny_split, None, optimizer="sgd", epochs=1)
        for strategy in ("range", "hash"):
            sharded, _ = _train_gnmr(tiny_split, 2, optimizer="sgd",
                                     strategy=strategy, epochs=1)
            want = EmbeddingStore.snapshot(plain, dtype=None)
            got = EmbeddingStore.snapshot(sharded, dtype=None)
            np.testing.assert_array_equal(got.user_matrix, want.user_matrix)
            np.testing.assert_array_equal(got.item_matrix, want.item_matrix)
            assert got.content_hash == want.content_hash


class TestCheckpointRoundtrip:
    def test_sharded_checkpoint_restores(self, tmp_path, tiny_split):
        from repro.utils import load_checkpoint, save_checkpoint

        model, _ = _train_gnmr(tiny_split, 2, epochs=1)
        path = save_checkpoint(model, tmp_path / "sharded.npz",
                               metadata={"shards": 2})
        clone = GNMR(tiny_split.train,
                     GNMRConfig(pretrain=False, seed=1, num_layers=2,
                                dropout=0.0, shards=2))
        meta = load_checkpoint(clone, path)
        assert meta["shards"] == 2
        for a, b in zip(_tables(model), _tables(clone)):
            np.testing.assert_array_equal(a, b)

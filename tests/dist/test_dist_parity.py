"""Cross-process bit-parity: the ISSUE-8 acceptance oracle.

``dist="sync"`` over a real transport must reproduce in-process
``shards=K`` training *exactly* — identical loss trace and identical
final parameters — because synchronous mode barriers on every push and
optimizer state is strictly per-parameter (see ``docs/distributed.md``).
The in-process baseline is itself pinned to the unsharded float64 goldens
by ``tests/shard/test_parity.py``, so transitively these runs reproduce
the seed goldens too.
"""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.shard import table_array
from repro.train import TrainConfig, Trainer
from repro.utils import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def tiny_split():
    return leave_one_out_split(taobao_like(num_users=50, num_items=120,
                                           seed=0))


def _train_gnmr(split, *, shards=2, dist="off", transport="shm",
                workers=None, staleness=2, optimizer="adam",
                propagation="async"):
    config = GNMRConfig(pretrain=False, seed=0, num_layers=2, dropout=0.0,
                        shards=shards, shard_strategy="range")
    model = GNMR(split.train, config)
    tc = TrainConfig(epochs=2, steps_per_epoch=4, batch_users=8, per_user=2,
                     propagation=propagation, workers=0, fanout=5, seed=0,
                     optimizer=optimizer, dist=dist,
                     dist_workers=workers, dist_staleness=staleness,
                     dist_transport=transport)
    losses = Trainer(model, split.train, tc).run().series("loss")
    return model, losses


def _tables(model):
    return (table_array(model.user_embeddings),
            table_array(model.item_embeddings))


@pytest.fixture(scope="module")
def baseline(tiny_split):
    """In-process shards=2 Adam run — the parity reference."""
    model, losses = _train_gnmr(tiny_split, shards=2, dist="off")
    return _tables(model), losses


def assert_bit_parity(model, losses, baseline):
    (ref_users, ref_items), ref_losses = baseline
    assert losses == ref_losses  # loss trace, bit for bit
    users, items = _tables(model)
    np.testing.assert_array_equal(users, ref_users)
    np.testing.assert_array_equal(items, ref_items)


class TestSyncParity:
    def test_inline_transport(self, tiny_split, baseline):
        model, losses = _train_gnmr(tiny_split, dist="sync",
                                    transport="inline")
        assert_bit_parity(model, losses, baseline)

    def test_shm_transport(self, tiny_split, baseline):
        model, losses = _train_gnmr(tiny_split, dist="sync", transport="shm",
                                    workers=2)
        assert_bit_parity(model, losses, baseline)

    def test_single_worker_owns_all_shards(self, tiny_split, baseline):
        """W < K: round-robin multiplexing must not disturb parity."""
        model, losses = _train_gnmr(tiny_split, dist="sync", transport="shm",
                                    workers=1)
        assert_bit_parity(model, losses, baseline)

    def test_async_with_zero_staleness_is_sync(self, tiny_split, baseline):
        model, losses = _train_gnmr(tiny_split, dist="async", staleness=0,
                                    transport="shm", workers=2)
        assert_bit_parity(model, losses, baseline)

    def test_sgd_dense_frames(self, tiny_split):
        """SGD under full propagation pushes dense blocks, not row-sparse."""
        ref_model, ref_losses = _train_gnmr(tiny_split, dist="off",
                                            optimizer="sgd",
                                            propagation="full")
        model, losses = _train_gnmr(tiny_split, dist="sync", transport="shm",
                                    workers=2, optimizer="sgd",
                                    propagation="full")
        assert losses == ref_losses
        for got, want in zip(_tables(model), _tables(ref_model)):
            np.testing.assert_array_equal(got, want)


class TestAsyncMode:
    def test_stale_pushes_converge(self, tiny_split):
        """No parity claim under staleness>0 — but training must finish
        with finite losses and fully-applied owners."""
        model, losses = _train_gnmr(tiny_split, dist="async", staleness=3,
                                    transport="shm", workers=2)
        assert len(losses) == 2  # one entry per epoch
        assert all(np.isfinite(losses))
        users, items = _tables(model)
        assert np.all(np.isfinite(users)) and np.all(np.isfinite(items))


class TestCheckpointAfterDist:
    def test_drained_tables_roundtrip_with_hashes(self, tiny_split, tmp_path,
                                                  baseline):
        """close() drains in-flight pushes, so a checkpoint saved after a
        dist run holds the fully-applied tables — and reloads bit-equal
        through the integrity-hash verification added in this PR."""
        model, losses = _train_gnmr(tiny_split, dist="sync", transport="shm",
                                    workers=2)
        path = save_checkpoint(model, tmp_path / "dist.npz")
        config = GNMRConfig(pretrain=False, seed=0, num_layers=2,
                            dropout=0.0, shards=2, shard_strategy="range")
        clone = GNMR(tiny_split.train, config)
        load_checkpoint(clone, path)  # verify=True re-hashes every array
        assert_bit_parity(clone, losses, baseline)

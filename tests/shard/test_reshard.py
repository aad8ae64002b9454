"""Property tests for K→K' reshard: migration is exact index arithmetic.

Seeded randomized coverage of :mod:`repro.shard.reshard`: random shard
counts and strategies, 1-D bias tables, shard counts exceeding the row
count (empty shards), optimizer row state riding with its rows, and the
end-to-end oracle — training resumed from a resharded training state
bit-matches training that never resharded.
"""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.shard import ShardSpec
from repro.shard.reshard import (
    ReshardError,
    find_sharded_tables,
    reshard_file,
    reshard_state,
)
from repro.train.resume import load_training_state
from repro.train.trainer import TrainConfig


def split_table(base, full, spec):
    """State-dict entries for ``full`` partitioned under ``spec``."""
    return {f"{base}.shards.{k}": np.ascontiguousarray(full[spec.shard_rows(k)])
            for k in range(spec.num_shards)}


def assemble(state, base, num_shards, strategy):
    parts = [state[f"{base}.shards.{k}"] for k in range(num_shards)]
    rows = sum(p.shape[0] for p in parts)
    return ShardSpec(rows, num_shards, strategy).assemble(parts)


class TestReshardState:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_k_to_kprime_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(8, 60))
        dim = int(rng.integers(1, 6))
        old_k = int(rng.integers(1, 8))
        new_k = int(rng.integers(1, 8))
        old_strategy, new_strategy = rng.choice(["range", "hash"], size=2)
        full = rng.standard_normal((rows, dim))
        old_spec = ShardSpec(rows, old_k, old_strategy)
        state = split_table("emb", full, old_spec)
        state["dense.weight"] = rng.standard_normal((3, 3))
        new_state, _, info = reshard_state(
            state, None, num_shards=new_k, strategy=new_strategy,
            old_strategy=old_strategy)
        np.testing.assert_array_equal(
            assemble(new_state, "emb", new_k, new_strategy), full)
        assert new_state["dense.weight"] is state["dense.weight"]
        assert info == {"emb": {"rows": rows, "old_shards": old_k}}

    def test_one_dimensional_bias_tables(self):
        rng = np.random.default_rng(3)
        full = rng.standard_normal(17)
        state = split_table("bias", full, ShardSpec(17, 3, "range"))
        new_state, _, _ = reshard_state(state, None, num_shards=5,
                                        strategy="hash",
                                        old_strategy="range")
        np.testing.assert_array_equal(assemble(new_state, "bias", 5, "hash"),
                                      full)

    def test_one_row_per_shard_boundary(self):
        """rows == K' is the thinnest legal layout; every shard holds one
        row and the round trip is still exact."""
        rng = np.random.default_rng(4)
        full = rng.standard_normal((5, 2))
        state = split_table("emb", full, ShardSpec(5, 2, "range"))
        new_state, _, _ = reshard_state(state, None, num_shards=5,
                                        strategy="hash",
                                        old_strategy="range")
        sizes = [new_state[f"emb.shards.{k}"].shape[0] for k in range(5)]
        assert sizes == [1] * 5
        np.testing.assert_array_equal(assemble(new_state, "emb", 5, "hash"),
                                      full)

    def test_more_shards_than_rows_raises_cleanly(self):
        """ShardSpec forbids empty shards (at most one shard per row);
        the reshard tool surfaces that as a ReshardError, not a bare
        ValueError from deep inside the spec arithmetic."""
        rng = np.random.default_rng(4)
        full = rng.standard_normal((3, 2))
        state = split_table("emb", full, ShardSpec(3, 2, "range"))
        with pytest.raises(ReshardError, match="cannot reshard table"):
            reshard_state(state, None, num_shards=7, strategy="range",
                          old_strategy="range")

    @pytest.mark.parametrize("seed", range(4))
    def test_optimizer_row_state_moves_with_its_rows(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows, dim = 23, 4
        old_k, new_k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        full = rng.standard_normal((rows, dim))
        m_full = rng.standard_normal((rows, dim))
        v_full = rng.standard_normal((rows, dim)) ** 2
        steps_full = rng.integers(0, 50, size=rows)
        old_spec = ShardSpec(rows, old_k, "range")
        state = split_table("emb", full, old_spec)
        opt = {f"emb.shards.{k}": {
                   "m": np.ascontiguousarray(m_full[old_spec.shard_rows(k)]),
                   "v": np.ascontiguousarray(v_full[old_spec.shard_rows(k)]),
                   "row_steps": np.ascontiguousarray(
                       steps_full[old_spec.shard_rows(k)]),
                   "param_t": 50}
               for k in range(old_k)}
        _, new_opt, _ = reshard_state(state, opt, num_shards=new_k,
                                      strategy="hash", old_strategy="range")
        new_spec = ShardSpec(rows, new_k, "hash")
        for k in range(new_k):
            shard_rows = new_spec.shard_rows(k)
            slots = new_opt[f"emb.shards.{k}"]
            np.testing.assert_array_equal(slots["m"], m_full[shard_rows])
            np.testing.assert_array_equal(slots["v"], v_full[shard_rows])
            np.testing.assert_array_equal(slots["row_steps"],
                                          steps_full[shard_rows])
            # per-parameter clocks replicate to every new shard
            assert slots["param_t"] == 50

    def test_mixed_row_slot_presence_raises(self):
        rng = np.random.default_rng(5)
        full = rng.standard_normal((10, 2))
        old_spec = ShardSpec(10, 2, "range")
        state = split_table("emb", full, old_spec)
        opt = {"emb.shards.0": {"m": full[old_spec.shard_rows(0)] * 0,
                                "row_steps": np.zeros(5, dtype=np.int64),
                                "param_t": 3},
               "emb.shards.1": {"m": full[old_spec.shard_rows(1)] * 0,
                                "param_t": 3}}  # row_steps never materialized
        with pytest.raises(ReshardError, match="materialized"):
            reshard_state(state, opt, num_shards=3, strategy="range",
                          old_strategy="range")

    def test_out_of_lockstep_clocks_raise(self):
        rng = np.random.default_rng(6)
        full = rng.standard_normal((8, 2))
        old_spec = ShardSpec(8, 2, "range")
        state = split_table("emb", full, old_spec)
        opt = {"emb.shards.0": {"param_t": 3},
               "emb.shards.1": {"param_t": 4}}
        with pytest.raises(ReshardError, match="lockstep"):
            reshard_state(state, opt, num_shards=1, strategy="range",
                          old_strategy="range")

    def test_wrong_old_strategy_caught_by_size_check(self):
        # range and hash produce identical shard *sizes* for balanced
        # tables, so pick sizes only range produces: 5 rows over 2 shards
        rng = np.random.default_rng(7)
        state = {"emb.shards.0": rng.standard_normal((4, 2)),
                 "emb.shards.1": rng.standard_normal((1, 2))}
        with pytest.raises(ReshardError, match="owns"):
            reshard_state(state, None, num_shards=2, strategy="range",
                          old_strategy="range")

    def test_non_dense_shard_indices_raise(self):
        state = {"emb.shards.0": np.zeros((2, 2)),
                 "emb.shards.2": np.zeros((2, 2))}
        with pytest.raises(ReshardError, match="indices"):
            find_sharded_tables(state)

    def test_unsharded_state_raises(self):
        with pytest.raises(ReshardError, match="no sharded tables"):
            reshard_state({"weight": np.zeros((2, 2))}, None, num_shards=2)


class TestReshardedResumeParity:
    """The tentpole oracle: resharded resume == never resharded."""

    SPLIT = leave_one_out_split(taobao_like(num_users=40, num_items=90,
                                            seed=0))

    @classmethod
    def build(cls, shards, strategy="range"):
        return GNMR(cls.SPLIT.train,
                    GNMRConfig(pretrain=False, seed=0, num_layers=2,
                               dropout=0.0, shards=shards,
                               shard_strategy=strategy))

    @classmethod
    def config(cls, epochs, save=None, optimizer="sgd"):
        return TrainConfig(epochs=epochs, steps_per_epoch=4, batch_users=8,
                           per_user=2, propagation="async", workers=0, fanout=5,
                           seed=0, optimizer=optimizer, save_state=save)

    def logical_tables(self, model, strategy):
        state = model.state_dict()
        tables = {}
        for base, keys in find_sharded_tables(state).items():
            parts = [state[key] for key in keys]
            rows = sum(p.shape[0] for p in parts)
            spec = ShardSpec(rows, len(parts), strategy)
            tables[base] = spec.assemble(parts)
        for key, value in state.items():
            if ".shards." not in key:
                tables[key] = value
        return tables

    @pytest.mark.parametrize("optimizer,old_strategy,new_k,new_strategy", [
        pytest.param("sgd", "range", 5, "range", id="sgd-5-range"),
        pytest.param("adam", "range", 5, "range", id="adam-5-range"),
        pytest.param("sgd", "range", 4, "hash", id="sgd-4-hash"),
        # a hash source: its layout is read from the file, never passed
        pytest.param("adam", "hash", 5, None, id="adam-from-hash-5"),
        pytest.param("sgd", "hash", 4, "range", id="sgd-from-hash-4-range"),
    ])
    def test_resume_from_resharded_state(self, tmp_path, optimizer,
                                         old_strategy, new_k, new_strategy):
        full = self.build(3, old_strategy)
        full.fit(self.SPLIT.train, self.config(4, optimizer=optimizer))
        state = str(tmp_path / "state.npz")
        part = self.build(3, old_strategy)
        part.fit(self.SPLIT.train,
                 self.config(2, save=state, optimizer=optimizer))
        out = str(tmp_path / "resharded.npz")
        info = reshard_file(state, out, new_k, strategy=new_strategy)
        assert info["format"] == "train-state"
        assert info["old_strategy"] == old_strategy
        new_strategy = new_strategy or old_strategy
        resumed = self.build(new_k, new_strategy)
        resumed.fit(self.SPLIT.train, self.config(4, optimizer=optimizer),
                    resume_from=out)
        expected = self.logical_tables(full, old_strategy)
        actual = self.logical_tables(resumed, new_strategy)
        assert sorted(expected) == sorted(actual)
        for key in expected:
            np.testing.assert_array_equal(expected[key], actual[key],
                                          err_msg=key)

    def test_hash_state_reshards_row_for_row(self, tmp_path):
        """A hash-layout state migrates by its recorded strategy: tables
        and Adam ``m``/``v``/``row_steps`` equal the source row for row.
        (Hash and range shard sizes always coincide, so reading it as
        range loads cleanly into a 3-shard model — with scrambled rows.)"""
        state = str(tmp_path / "state.npz")
        model = self.build(2, "hash")
        model.fit(self.SPLIT.train,
                  self.config(2, save=state, optimizer="adam"))
        out = str(tmp_path / "resharded.npz")
        info = reshard_file(state, out, 3)
        assert (info["old_strategy"], info["strategy"]) == ("hash", "hash")
        source, migrated = load_training_state(state), load_training_state(out)
        for base, keys in find_sharded_tables(source.model_state).items():
            new_keys = [f"{base}.shards.{k}" for k in range(3)]
            rows = sum(source.model_state[key].shape[0] for key in keys)
            old_spec = ShardSpec(rows, 2, "hash")
            new_spec = ShardSpec(rows, 3, "hash")
            np.testing.assert_array_equal(
                new_spec.assemble([migrated.model_state[k] for k in new_keys]),
                old_spec.assemble([source.model_state[k] for k in keys]),
                err_msg=base)
            for slot in ("m", "v", "row_steps"):
                np.testing.assert_array_equal(
                    new_spec.assemble([migrated.optimizer_states[k][slot]
                                       for k in new_keys]),
                    old_spec.assemble([source.optimizer_states[k][slot]
                                       for k in keys]),
                    err_msg=f"{base}::{slot}")
        resumed = self.build(3, "hash")
        resumed.fit(self.SPLIT.train, self.config(2, optimizer="adam"),
                    resume_from=out)
        expected = self.logical_tables(model, "hash")
        for key, value in self.logical_tables(resumed, "hash").items():
            np.testing.assert_array_equal(value, expected[key], err_msg=key)

    def test_unrecorded_strategy_is_refused_not_guessed(self, tmp_path):
        """A state written before the layout was recorded: ``reshard``
        names ``--old-strategy`` instead of assuming range."""
        from repro.train.resume import save_training_state

        state = str(tmp_path / "state.npz")
        self.build(2, "hash").fit(self.SPLIT.train, self.config(1, save=state))
        saved = load_training_state(state)
        meta = {k: v for k, v in saved.meta.items()
                if k not in ("shards", "shard_strategy")}
        old = str(tmp_path / "old.npz")
        save_training_state(old, saved.model_state, saved.optimizer_states,
                            meta)
        with pytest.raises(ReshardError, match="--old-strategy"):
            reshard_file(old, str(tmp_path / "out.npz"), 3)
        info = reshard_file(old, str(tmp_path / "out.npz"), 3,
                            old_strategy="hash")
        assert info["strategy"] == "hash"

    def test_resharded_state_metadata_updated(self, tmp_path):
        state = str(tmp_path / "state.npz")
        part = self.build(2)
        part.fit(self.SPLIT.train, self.config(1, save=state))
        out = str(tmp_path / "resharded.npz")
        reshard_file(state, out, 3)
        migrated = load_training_state(out)
        assert migrated.meta["shards"] == 3
        assert migrated.meta["shard_strategy"] == "range"
        # trainer cursor survives the migration untouched
        original = load_training_state(state)
        assert migrated.global_step == original.global_step
        assert migrated.meta["rng_state"] == original.meta["rng_state"]


class TestReshardFile:
    def test_plain_checkpoint_reshard(self, tmp_path):
        from repro.utils.checkpoint import peek_checkpoint, save_checkpoint

        model = TestReshardedResumeParity.build(2)
        before = {base: np.array(table) for base, table in
                  TestReshardedResumeParity().logical_tables(
                      model, "range").items()}
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path, metadata={"shards": 2,
                                               "shard_strategy": "range"})
        out = str(tmp_path / "ckpt4.npz")
        info = reshard_file(path, out, 4)
        assert info["format"] == "checkpoint"
        meta = peek_checkpoint(out)
        assert meta["shards"] == 4 and meta["shard_strategy"] == "range"
        rebuilt = TestReshardedResumeParity.build(4)
        from repro.utils.checkpoint import load_checkpoint

        load_checkpoint(rebuilt, out)
        after = TestReshardedResumeParity().logical_tables(rebuilt, "range")
        for key, value in before.items():
            np.testing.assert_array_equal(value, after[key], err_msg=key)

    def test_invalid_shard_count(self, tmp_path):
        with pytest.raises(ReshardError, match=">= 1"):
            reshard_file(str(tmp_path / "x.npz"), str(tmp_path / "y.npz"), 0)

    def test_cli_reshard_reports_and_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        split = TestReshardedResumeParity.SPLIT
        model = TestReshardedResumeParity.build(2)
        path = str(tmp_path / "ckpt.npz")
        from repro.utils.checkpoint import save_checkpoint

        save_checkpoint(model, path, metadata={"shards": 2,
                                               "shard_strategy": "range"})
        assert main(["reshard", "--checkpoint", path, "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "resharded checkpoint to 3 range shards" in out
        # unsharded checkpoint → clean error, not a traceback
        bare = str(tmp_path / "bare.npz")
        from repro.models import BiasMF

        save_checkpoint(BiasMF(split.train.num_users, split.train.num_items,
                               seed=0), bare)
        assert main(["reshard", "--checkpoint", bare, "--shards", "2"]) == 1
        assert "no sharded tables" in capsys.readouterr().err

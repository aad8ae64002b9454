"""Mid-epoch checkpoint/resume: ``train N == train M + resume N-M``, bit-exact.

The oracle behind the whole resume subsystem: a training state written by
``TrainConfig.save_state`` and continued with ``fit(resume_from=...)``
must reproduce the uninterrupted run *bit for bit* — final parameters,
optimizer state, loss trace, eval history, rng consumption — across every
propagation mode (full graph; mini-batch layered blocks, extracted inline
or by the prefetch pipeline). The crash flavor uses the
:class:`helpers.faults.CrashAtStep` hook: die right after a mid-epoch
save, resume from the partial epoch, and still match.
"""

import numpy as np
import pytest
from helpers.faults import CrashAtStep, TrainerKilled
from helpers.shards import split_state

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.experiments import MODEL_NAMES, ExperimentScale, make_model
from repro.models import BiasMF
from repro.train.resume import load_training_state, save_training_state
from repro.train.trainer import TrainConfig

SPLIT = leave_one_out_split(taobao_like(num_users=40, num_items=90, seed=0))


def bias_mf():
    return BiasMF(SPLIT.train.num_users, SPLIT.train.num_items, seed=0)


def gnmr():
    return GNMR(SPLIT.train, GNMRConfig(pretrain=False, seed=0, num_layers=2,
                                        dropout=0.0))


def config(epochs, **overrides):
    base = dict(epochs=epochs, steps_per_epoch=4, batch_users=8, per_user=2,
                seed=0, eval_every=1)
    base.update(overrides)
    return TrainConfig(**base)


def assert_states_equal(model_a, model_b, history_a=None, history_b=None):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert sorted(state_a) == sorted(state_b)
    for key in state_a:
        np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)
    if history_a is not None:
        assert history_a.rows == history_b.rows


class TestEndOfRunResume:
    """Save at the end of a short run, resume to the full length."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_biasmf_10_equals_6_plus_4(self, tmp_path, optimizer):
        state = str(tmp_path / "state.npz")
        full = bias_mf()
        h_full = full.fit(SPLIT.train, config(10, optimizer=optimizer))
        part = bias_mf()
        part.fit(SPLIT.train, config(6, optimizer=optimizer,
                                     save_state=state))
        resumed = bias_mf()
        h_resumed = resumed.fit(SPLIT.train,
                                config(10, optimizer=optimizer),
                                resume_from=state)
        assert_states_equal(full, resumed, h_full, h_resumed)

    def test_history_rows_carry_over(self, tmp_path):
        state = str(tmp_path / "state.npz")
        part = bias_mf()
        part.fit(SPLIT.train, config(3, save_state=state))
        resumed = bias_mf()
        history = resumed.fit(SPLIT.train, config(5), resume_from=state)
        assert [row["epoch"] for row in history.rows] == [0, 1, 2, 3, 4]

    def test_config_mismatch_is_rejected(self, tmp_path):
        state = str(tmp_path / "state.npz")
        bias_mf().fit(SPLIT.train, config(2, save_state=state))
        with pytest.raises(ValueError, match="lr: saved"):
            bias_mf().fit(SPLIT.train, config(4, lr=0.5), resume_from=state)

    def test_already_finished_state_is_rejected(self, tmp_path):
        state = str(tmp_path / "state.npz")
        bias_mf().fit(SPLIT.train, config(3, save_state=state))
        with pytest.raises(ValueError, match="steps in"):
            bias_mf().fit(SPLIT.train, config(2), resume_from=state)


class TestCrashResume:
    """SIGKILL-style death right after a mid-epoch save, then resume."""

    def test_biasmf_mid_epoch_crash(self, tmp_path):
        state = str(tmp_path / "state.npz")
        full = bias_mf()
        h_full = full.fit(SPLIT.train, config(5))
        crashed = bias_mf()
        trainer_cfg = config(5, save_state=state, save_every_steps=3)
        from repro.train.trainer import Trainer

        trainer = Trainer(crashed, SPLIT.train, trainer_cfg,
                          step_hook=CrashAtStep(9))  # mid-epoch 2
        with pytest.raises(TrainerKilled):
            trainer.run()
        saved = load_training_state(state)
        assert saved.global_step == 9  # the save at step 9 hit disk first
        resumed = bias_mf()
        h_resumed = resumed.fit(SPLIT.train, config(5), resume_from=state)
        assert_states_equal(full, resumed, h_full, h_resumed)

    @pytest.mark.parametrize("propagation,workers", [
        ("full", 0), ("async", 0), ("async", 1),
    ])
    def test_gnmr_modes_mid_epoch_crash(self, tmp_path, propagation, workers):
        state = str(tmp_path / "state.npz")
        overrides = dict(propagation=propagation, workers=workers, fanout=5)
        full = gnmr()
        h_full = full.fit(SPLIT.train, config(4, **overrides))
        crashed = gnmr()
        from repro.train.trainer import Trainer

        trainer = Trainer(crashed, SPLIT.train,
                          config(4, save_state=state, save_every_steps=5,
                                 **overrides),
                          step_hook=CrashAtStep(10))
        with pytest.raises(TrainerKilled):
            trainer.run()
        resumed = gnmr()
        h_resumed = resumed.fit(SPLIT.train, config(4, **overrides),
                                resume_from=state)
        assert_states_equal(full, resumed, h_full, h_resumed)


class TestStateOfAnEarlierBuild:
    """A state that holds each table, and its Adam moments and row
    counters, as K row blocks continues exactly like the one-table state
    it was cut from: the blocks are merged as the file is read."""

    @pytest.mark.parametrize("count,strategy", [(3, "hash"), (2, "range"),
                                                (1, None)])
    def test_blocks_resume_like_the_state_they_were_cut_from(
            self, tmp_path, count, strategy):
        overrides = dict(propagation="async", workers=0, fanout=5)
        whole, blocks = str(tmp_path / "whole.npz"), str(tmp_path / "blocks.npz")
        gnmr().fit(SPLIT.train, config(2, save_state=whole, **overrides))
        saved = load_training_state(whole)
        assert "row_steps" in saved.optimizer_states["user_embeddings"]
        model_state, optimizer_states = split_state(
            saved.model_state, saved.optimizer_states,
            ("user_embeddings", "item_embeddings"), count, strategy)
        assert f"item_embeddings.shards.{count - 1}" in model_state
        layout = {"shards": count}
        if strategy is not None:  # one block is one table either way
            layout["shard_strategy"] = strategy
        save_training_state(blocks, model_state, optimizer_states,
                            {**saved.meta, **layout})
        merged = load_training_state(blocks)
        assert not {"shards", "shard_strategy"} & set(merged.meta)
        assert sorted(merged.optimizer_states) == sorted(saved.optimizer_states)
        from_whole, from_blocks = gnmr(), gnmr()
        h_whole = from_whole.fit(SPLIT.train, config(4, **overrides),
                                 resume_from=whole)
        h_blocks = from_blocks.fit(SPLIT.train, config(4, **overrides),
                                   resume_from=blocks)
        assert_states_equal(from_whole, from_blocks, h_whole, h_blocks)


class TestFinalEpochEval:
    """The final epoch must evaluate even when eval_every skips past it —
    including when that final epoch runs inside a resumed session."""

    @staticmethod
    def run_with_eval(model, cfg, resume_from=None):
        calls = []

        def eval_fn():
            calls.append(True)
            return float(len(calls))

        history = model.fit(SPLIT.train, cfg, eval_fn=eval_fn,
                            resume_from=resume_from)
        return history, calls

    def test_uninterrupted_final_eval(self):
        history, calls = self.run_with_eval(bias_mf(), config(6, eval_every=4))
        # epochs 0..5: eval at epoch 3 (period) and epoch 5 (final)
        assert len(calls) == 2
        assert [row["epoch"] for row in history.rows
                if row.get("metric") is not None] == [3, 5]

    def test_resumed_final_eval(self, tmp_path):
        state = str(tmp_path / "state.npz")
        part = bias_mf()
        part.fit(SPLIT.train, config(4, eval_every=4, save_state=state))
        resumed = bias_mf()
        history, calls = self.run_with_eval(
            resumed, config(6, eval_every=4), resume_from=state)
        # only epochs 4 and 5 run here; epoch 5 is final → must evaluate
        assert len(calls) == 1
        evaluated = [row["epoch"] for row in history.rows
                     if row.get("metric") is not None]
        assert evaluated[-1] == 5


class TestEveryModel:
    """``train N ≡ train M + resume N−M`` for all thirteen models: one loop
    trains them all, so a mid-epoch crash and resume is the uninterrupted
    run bit for bit (float64) whatever the model's batch source — the
    profile rows of AutoRec and CDAE (their epoch permutation and CDAE's
    corruption masks included), NMTR's per-behaviour batches and GNMR's
    dropout masks too."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_mid_epoch_crash_resumes_bit_exact(self, tmp_path, name):
        from repro.train.trainer import Trainer

        scale = ExperimentScale(pretrain_epochs=2, seed=0)

        def build():  # GNMR keeps its dropout: the masks' rng resumes too
            return make_model(name, SPLIT.train, scale)

        state = str(tmp_path / "state.npz")
        full = build()
        h_full = full.fit(SPLIT.train, config(3))
        crashed = build()
        # step 7 is mid-epoch both at 4 pairwise steps an epoch and at the
        # profile models' 5 (40 users, 8 a step)
        trainer = Trainer(crashed, SPLIT.train,
                          config(3, save_state=state, save_every_steps=7),
                          step_hook=CrashAtStep(7))
        with pytest.raises(TrainerKilled):
            trainer.run()
        assert 0 < load_training_state(state).step_in_epoch
        resumed = build()
        h_resumed = resumed.fit(SPLIT.train, config(3), resume_from=state)
        assert_states_equal(full, resumed, h_full, h_resumed)

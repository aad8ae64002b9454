"""Tests of the generic pairwise trainer (Algorithm 1)."""

import importlib

import numpy as np
import pytest

from repro.core import GNMRConfig
from repro.experiments import make_model
from repro.models import NGCF, BiasMF
from repro.train import TrainConfig, Trainer


@pytest.fixture
def setup(small_taobao):
    from repro.data import leave_one_out_split

    split = leave_one_out_split(small_taobao)
    model = BiasMF(split.train.num_users, split.train.num_items, seed=0)
    return split.train, model


class TestTraining:
    def test_loss_decreases(self, setup):
        train, model = setup
        config = TrainConfig(epochs=20, steps_per_epoch=6, batch_users=16,
                             per_user=2, lr=5e-3, seed=0)
        history = Trainer(model, train, config).run()
        losses = history.series("loss")
        assert losses[-1] < losses[0]

    def test_history_length(self, setup):
        train, model = setup
        config = TrainConfig(epochs=7, steps_per_epoch=2, seed=0)
        history = Trainer(model, train, config).run()
        assert len(history) == 7

    def test_lr_decay_applied(self, setup):
        train, model = setup
        config = TrainConfig(epochs=3, steps_per_epoch=1, lr=1e-2,
                             lr_decay=0.5, seed=0)
        history = Trainer(model, train, config).run()
        lrs = history.series("lr")
        assert lrs == [5e-3, 2.5e-3, 1.25e-3]

    def test_model_left_in_eval_mode(self, setup):
        train, model = setup
        Trainer(model, train, TrainConfig(epochs=1, steps_per_epoch=1)).run()
        assert not model.training

    def test_eval_fn_recorded(self, setup):
        train, model = setup
        calls = []

        def fake_eval():
            calls.append(1)
            return 0.5

        config = TrainConfig(epochs=3, steps_per_epoch=1, seed=0)
        history = Trainer(model, train, config, eval_fn=fake_eval).run()
        assert len(calls) == 3
        assert history.series("metric") == [0.5, 0.5, 0.5]

    def test_bpr_loss_option(self, setup):
        train, model = setup
        config = TrainConfig(epochs=3, steps_per_epoch=2, loss="bpr", seed=0)
        history = Trainer(model, train, config).run()
        assert np.isfinite(history.last()["loss"])

    def test_unknown_loss_rejected(self, setup):
        train, model = setup
        with pytest.raises(ValueError):
            Trainer(model, train, TrainConfig(loss="bogus"))

    def test_deterministic_given_seed(self, small_taobao):
        from repro.data import leave_one_out_split

        split = leave_one_out_split(small_taobao)
        config = TrainConfig(epochs=3, steps_per_epoch=3, seed=42)
        histories = []
        for _ in range(2):
            model = BiasMF(split.train.num_users, split.train.num_items, seed=7)
            histories.append(Trainer(model, split.train, config).run())
        assert histories[0].series("loss") == histories[1].series("loss")


class TestModeMatrix:
    """One loop, every surviving mode: propagation selects a trajectory;
    one process applies every step."""

    @pytest.fixture(scope="class")
    def split(self):
        from repro.data import leave_one_out_split, taobao_like

        return leave_one_out_split(taobao_like(num_users=40, num_items=90,
                                               seed=0))

    @staticmethod
    def model(split):
        from repro.core import GNMR, GNMRConfig

        return GNMR(split.train, GNMRConfig(pretrain=False, seed=0,
                                            num_layers=2, dropout=0.0))

    def train(self, split, path, *, epochs=6, resume_from=None, **overrides):
        """Eval and mid-run saves on. Returns history, tables, the state
        saved mid-run at step 4 and the end-of-run state."""
        from repro.train.resume import load_training_state

        model = self.model(split)
        mid_run = []

        def eval_fn():  # reads the tables, so a metric tracks the run
            return float(np.abs(model.user_embeddings.data).sum())

        def after_step(trainer, global_step):
            if global_step == 4:
                mid_run.append(load_training_state(path))

        config = TrainConfig(epochs=epochs, steps_per_epoch=3, batch_users=8,
                             per_user=2, workers=0, seed=0,
                             save_state=str(path), save_every_steps=2,
                             **overrides)
        trainer = Trainer(model, split.train, config, eval_fn=eval_fn,
                          step_hook=after_step)
        history = trainer.run(resume_from)
        return (history.rows, model.state_dict(), mid_run,
                load_training_state(path))

    @staticmethod
    def assert_same_state(got, want):
        assert got.meta == want.meta
        for kind in ("model_state", "optimizer_states"):
            assert sorted(getattr(got, kind)) == sorted(getattr(want, kind))
        for name, value in want.model_state.items():
            np.testing.assert_array_equal(got.model_state[name], value)
        for name, slots in want.optimizer_states.items():
            assert sorted(got.optimizer_states[name]) == sorted(slots)
            for slot, value in slots.items():
                np.testing.assert_array_equal(
                    got.optimizer_states[name][slot], value,
                    err_msg=f"{name}::{slot}")

    @pytest.mark.parametrize("propagation", ["full", "async"])
    def test_one_trajectory_per_cell(self, split, tmp_path, propagation):
        from repro.train.resume import save_training_state

        cell = dict(propagation=propagation)
        if propagation == "async":
            cell["fanout"] = 5
        rows, tables, mid_run, final = self.train(
            split, tmp_path / "first.npz", **cell)
        assert len(rows) == 6 and len(mid_run) == 1
        assert all("metric" in row for row in rows)  # every epoch evaluates
        assert mid_run[0].global_step == 4
        got_rows, got_tables, got_mid, got_final = self.train(
            split, tmp_path / "second.npz", **cell)
        assert got_rows == rows  # losses, lrs and eval metrics
        assert sorted(got_tables) == sorted(tables)
        for key, value in tables.items():
            np.testing.assert_array_equal(got_tables[key], value, err_msg=key)
        self.assert_same_state(got_mid[0], mid_run[0])
        self.assert_same_state(got_final, final)
        # train 6 epochs == the state saved at step 4 + resume to 6
        state = mid_run[0]
        save_training_state(tmp_path / "mid.npz", state.model_state,
                            state.optimizer_states, state.meta)
        got_rows, got_tables, _, got_final = self.train(
            split, tmp_path / "resumed.npz",
            resume_from=str(tmp_path / "mid.npz"), **cell)
        assert got_rows == rows
        for key, value in tables.items():
            np.testing.assert_array_equal(got_tables[key], value, err_msg=key)
        self.assert_same_state(got_final, final)

    def test_state_written_by_the_previous_build_resumes(self, split,
                                                         tmp_path):
        """While tables could be stored as row blocks, a training state
        held each table as ``<base>.shards.<k>`` arrays, recorded the
        layout, once listed the optimizer entries in grouped order
        (unsharded first, then shard by shard) and echoed ``"shards": 2``
        in its config; until one process applied every step it also echoed
        ``"dist"`` — ``"off"``, or ``"sync"``, which bit-matched in-process
        by contract. The blocks are merged on read, entries are matched by
        parameter name and neither echo key is compared, so it continues
        bit-identically."""
        from helpers.shards import split_state

        from repro.train.resume import load_training_state, save_training_state

        cell = dict(propagation="async", fanout=5)
        rows, tables, _, final = self.train(split, tmp_path / "full.npz",
                                            **cell)
        self.train(split, tmp_path / "part.npz", epochs=1, **cell)
        saved = load_training_state(tmp_path / "part.npz")
        model_state, optimizer_states = split_state(
            saved.model_state, saved.optimizer_states,
            ("user_embeddings", "item_embeddings"), 2, "range")
        grouped = sorted(optimizer_states,
                         key=lambda name: (".shards." in name,
                                           name.rsplit(".", 1)[-1]))
        assert grouped != list(optimizer_states)
        meta = dict(saved.meta, shards=2, shard_strategy="range",
                    config=dict(saved.config, shards=2, dist="sync"))
        save_training_state(
            tmp_path / "old.npz", model_state,
            {name: optimizer_states[name] for name in grouped}, meta)
        got_rows, got_tables, _, got_final = self.train(
            split, tmp_path / "old.npz", resume_from=str(tmp_path / "old.npz"),
            **cell)
        assert got_rows == rows
        for key, value in tables.items():
            np.testing.assert_array_equal(got_tables[key], value, err_msg=key)
        self.assert_same_state(got_final, final)

    @pytest.mark.parametrize("removed", [
        (TrainConfig, dict(shards=2)), (TrainConfig, dict(verbose=True)),
        (TrainConfig, dict(dist="sync")),
        (TrainConfig, dict(optimizer="sgd")),
        (TrainConfig, dict(grad_clip=1.0)),
        (TrainConfig, dict(early_stopping_patience=2)),
        (TrainConfig, dict(eval_every=2)),
        (GNMRConfig, dict(shards=2)),
        (GNMRConfig, dict(shard_strategy="hash")),
        (NGCF, dict(dataset=None, shards=2)),
        (BiasMF, dict(num_users=4, num_items=5, shards=2)),
        (make_model, dict(name="GNMR", train=None, scale=None, shards=2)),
        (importlib.import_module, dict(name="repro.shard"))])
    def test_removed_fields_are_gone(self, removed):
        # nothing printed per epoch; one process applies every step; a
        # table is one array, so no model or factory takes a layout and
        # the package that split them is not importable; Adam is the one
        # optimizer, every step applies its gradients unclipped and every
        # epoch evaluates when given an eval_fn
        build, kwargs = removed
        with pytest.raises((TypeError, ModuleNotFoundError)):
            build(**kwargs)

    @pytest.mark.parametrize("module, name", [
        ("repro.nn", "SGD"), ("repro.nn", "clip_grad_norm"),
        ("repro.nn", "global_grad_norm"), ("repro.nn.optim", "Optimizer"),
        ("repro.nn.optim", "make_optimizer"),
        ("repro.train", "EarlyStopping"),
        ("repro.train.callbacks", "EarlyStopping"),
        ("repro.tensor", "RowSparseGrad.scale_"),
        ("repro.tensor", "RowSparseGrad.sq_norm"),
    ])
    def test_removed_names_are_gone(self, module, name):
        # Adam is the one optimizer and nothing clips or stops early, so
        # what only SGD, clipping and early stopping reached is gone too
        owner = importlib.import_module(module)
        *parents, leaf = name.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        assert not hasattr(owner, leaf)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("steps_per_epoch", 0), ("batch_users", 0),
    ("per_user", 0), ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")),
    ("lr_decay", 0.0), ("lr_decay", 1.5), ("l2_weight", -1e-4),
    ("lr_decay", float("nan")), ("l2_weight", float("nan")),
    ("save_every_steps", 0), ("dtype", "float16"),
])
def test_config_refuses_what_would_train_nothing(field, value):
    """Each of these used to be accepted and "trained" zero steps, or failed
    only once the run was set up; the error names the field."""
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})

"""A checkpoint carries the model's propagation.

``save_checkpoint`` stores GNMR's propagated layers 1..L beside the
parameters, with a fingerprint of everything else the propagation reads.
A verified load into a model with the same fingerprint serves those
tables instead of propagating the graph again; every other load
propagates on first use, exactly as a file without tables does.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import GNMR, GNMRConfig
from repro.data import synthesize_attributes
from repro.utils import load_checkpoint, save_checkpoint
from repro.utils.artifact import read_artifact, write_artifact

VARIANTS = {
    "defaults": {},
    "GNMR-be": {"use_behavior_embedding": False},
    "GNMR-ma": {"use_message_attention": False},
    "uniform-psi": {"use_gated_aggregation": False},
    "sum-aggregator": {"aggregator": "sum"},
    "no-self-connection": {"self_connection": False},
    "mean-combination": {"layer_combination": "mean"},
    "side-features": {"use_side_features": True},
}


@pytest.fixture(scope="module")
def featured(small_taobao):
    return synthesize_attributes(small_taobao, num_features=6, seed=1)


@pytest.fixture
def propagations(monkeypatch):
    """The models ``GNMR.propagate`` ran on, in call order."""
    calls = []
    propagate = GNMR.propagate

    def counted(self):
        calls.append(self)
        return propagate(self)

    monkeypatch.setattr(GNMR, "propagate", counted)
    return calls


def _model(dataset, seed, **overrides):
    return GNMR(dataset, GNMRConfig(pretrain=False, seed=seed, **overrides))


def _trained(dataset, **overrides):
    """A model whose every parameter moved off its initialisation (the
    zero biases included), standing in for a trained one."""
    model = _model(dataset, 1, **overrides)
    rng = np.random.default_rng(7)
    for parameter in model.parameters():
        parameter.data = (parameter.data + 0.1 * rng.standard_normal(
            parameter.shape)).astype(parameter.dtype)
    model.on_step_end()
    return model


def _tables(model):
    """Every propagated layer, the serving pair and a few scores."""
    users, items = model._propagated_arrays()
    pairs = np.arange(model.num_users) % model.num_items
    return [*users, *items, *model.serving_embeddings(),
            model.score(np.arange(model.num_users), pairs)]


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestRestored:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_restored_tables_are_the_recomputed_ones(
            self, variant, dtype, small_taobao, featured, tmp_path,
            propagations):
        dataset = featured if variant == "side-features" else small_taobao
        overrides = dict(VARIANTS[variant], dtype=dtype)
        path = save_checkpoint(_trained(dataset, **overrides),
                               tmp_path / "m.npz")
        fresh = _model(dataset, 2, **overrides)
        propagations.clear()
        load_checkpoint(fresh, path)
        restored = _tables(fresh)
        assert propagations == []
        fresh.engine.invalidate()
        _assert_same(restored, _tables(fresh))
        assert propagations == [fresh]

    def test_members_and_header(self, small_taobao, tmp_path):
        model = _trained(small_taobao, num_layers=3)
        arrays, meta = read_artifact(save_checkpoint(model, tmp_path / "m.npz"))
        stored = sorted(name for name in arrays if "::" in name)
        assert stored == sorted(f"propagation::{side}.{level}"
                                for side in ("user", "item")
                                for level in (1, 2, 3))
        assert meta["propagation"] == model.propagation_fingerprint()
        assert meta["num_parameters"] == model.num_parameters()
        users, items = model._propagated_arrays()
        np.testing.assert_array_equal(arrays["propagation::item.2"], items[2])
        np.testing.assert_array_equal(arrays["propagation::user.3"], users[3])

    def test_fingerprint_ignores_what_propagation_does_not_read(
            self, small_taobao):
        """``_rebuild_serving_model`` builds with ``pretrain=False``, and
        the e2e bring-up with its own seed: both must still hit."""
        reference = _model(small_taobao, 1).propagation_fingerprint()
        other = GNMR(small_taobao, GNMRConfig(
            seed=9, pretrain=True, pretrain_epochs=1, dropout=0.0,
            fanout=(4, 2), layer_combination="mean"))
        assert other.propagation_fingerprint() == reference


class TestPropagatesInstead:
    """Each miss propagates once on first use, into the tables of a model
    that never saw a stored propagation."""

    MISSES = {
        "one-edge-dropped": (
            lambda data: data.remove_target_rows(np.array([0])), {}),
        "graph-behaviors-subset": (
            lambda data: data,
            {"graph_behaviors": ("page_view", "cart", "purchase")}),
        "self-connection-flipped": (
            lambda data: data, {"self_connection": False}),
        "num-heads": (lambda data: data, {"num_heads": 4}),
        "float64-file-float32-model": (
            lambda data: data, {"dtype": "float32"}),
    }

    @pytest.mark.parametrize("case", list(MISSES))
    def test_miss_propagates(self, case, small_taobao, tmp_path,
                             propagations):
        edit, overrides = self.MISSES[case]
        source = _trained(small_taobao)
        path = save_checkpoint(source, tmp_path / "m.npz")
        dataset = edit(small_taobao)
        fresh = _model(dataset, 2, **overrides)
        assert fresh.propagation_fingerprint() != source.propagation_fingerprint()
        propagations.clear()
        load_checkpoint(fresh, path)
        got = _tables(fresh)
        assert propagations == [fresh]
        twin = _model(dataset, 3, **overrides)
        twin.load_state_dict(source.state_dict())
        _assert_same(got, _tables(twin))

    @pytest.mark.parametrize("flag", ["use_behavior_embedding",
                                      "use_message_attention",
                                      "use_gated_aggregation"])
    def test_flipped_flag_propagates(self, flag, small_taobao, tmp_path,
                                     propagations):
        """A flag adds or removes a module, so the file's parameters do not
        load at all; tables handed over directly are not taken either."""
        source = _trained(small_taobao)
        fingerprint, tables = source.propagation_tables()
        path = save_checkpoint(source, tmp_path / "m.npz")
        flipped = _model(small_taobao, 2, **{flag: False})
        assert flipped.propagation_fingerprint() != fingerprint
        version = flipped.engine.version
        with pytest.raises(KeyError, match="state mismatch"):
            load_checkpoint(flipped, path)
        assert flipped.engine.version == version
        flipped.restore_propagation(fingerprint, tables)
        propagations.clear()
        got = _tables(flipped)
        assert propagations == [flipped]
        _assert_same(got, _tables(_model(small_taobao, 2, **{flag: False})))

    def test_unverified_load_propagates(self, small_taobao, tmp_path,
                                        propagations):
        source = _trained(small_taobao)
        path = save_checkpoint(source, tmp_path / "m.npz")
        fresh = _model(small_taobao, 2)
        propagations.clear()
        load_checkpoint(fresh, path, verify=False)
        got = _tables(fresh)
        assert propagations == [fresh]
        _assert_same(got, _tables(source))

    def test_file_without_tables_propagates(self, small_taobao, tmp_path,
                                            propagations):
        """A checkpoint written before tables were stored."""
        source = _trained(small_taobao)
        path = write_artifact(tmp_path / "m.npz", source.state_dict(),
                              {"format": "checkpoint", "num_parameters": 1})
        fresh = _model(small_taobao, 2)
        propagations.clear()
        load_checkpoint(fresh, path)
        got = _tables(fresh)
        assert propagations == [fresh]
        _assert_same(got, _tables(source))

    @pytest.mark.parametrize("edit", ["level-missing", "wrong-shape",
                                      "wrong-dtype", "extra-level"])
    def test_tables_that_do_not_fit_are_not_taken(self, edit, small_taobao,
                                                  tmp_path, propagations):
        """A consistent file (its manifest re-hashed) whose header claims
        this model's fingerprint over tables of the wrong layout."""
        source = _trained(small_taobao)
        fingerprint, tables = source.propagation_tables()
        tables = dict(tables)
        if edit == "level-missing":
            del tables["item.2"]
        elif edit == "wrong-shape":
            tables["user.1"] = tables["user.1"][:-1]
        elif edit == "wrong-dtype":
            tables["user.1"] = tables["user.1"].astype(np.float32)
        else:
            tables["user.3"] = tables["user.2"]
        arrays = {**source.state_dict(),
                  **{f"propagation::{name}": table
                     for name, table in tables.items()}}
        path = write_artifact(tmp_path / "m.npz", arrays,
                              {"format": "checkpoint",
                               "propagation": fingerprint})
        fresh = _model(small_taobao, 2)
        propagations.clear()
        load_checkpoint(fresh, path)
        got = _tables(fresh)
        assert propagations == [fresh]
        _assert_same(got, _tables(source))


class TestServing:
    def test_recommend_from_checkpoint_runs_no_propagation(
            self, tmp_path, capsys, monkeypatch, propagations):
        """``recommend --checkpoint`` rebuilds the model through
        ``_rebuild_serving_model`` and answers from the stored tables,
        the same answer as when it recomputes them."""
        path = tmp_path / "gnmr.npz"
        assert main(["train", "--model", "GNMR", "--dataset", "taobao",
                     "--users", "25", "--items", "60", "--epochs", "1",
                     "--checkpoint", str(path)]) == 0
        argv = ["recommend", "--checkpoint", str(path), "--topk", "5",
                "--user-ids", "0,3,7,11,24"]
        capsys.readouterr()
        propagations.clear()
        assert main(argv) == 0
        served = capsys.readouterr().out
        assert propagations == []
        monkeypatch.setattr(GNMR, "restore_propagation",
                            lambda self, fingerprint, tables: None)
        assert main(argv) == 0
        recomputed = capsys.readouterr().out
        assert len(propagations) == 1
        assert served == recomputed

"""Fanout-schedule resolution, validation, and CLI parsing edge cases."""

import numpy as np
import pytest

from repro.graph.layered import parse_fanout, resolve_fanout, validate_fanout


class TestResolveFanout:
    def test_scalar_broadcasts_to_every_hop(self):
        assert resolve_fanout(10, 3) == [10, 10, 10]

    def test_none_means_no_cap_everywhere(self):
        assert resolve_fanout(None, 2) == [None, None]

    def test_schedule_passes_through(self):
        assert resolve_fanout([10, 5], 2) == [10, 5]
        assert resolve_fanout((10, None), 2) == [10, None]

    def test_schedule_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 entries.*3 hops"):
            resolve_fanout([10, 5], 3)
        with pytest.raises(ValueError, match="3 entries.*2 hops"):
            resolve_fanout([10, 5, 3], 2)

    def test_zero_hops_accepts_scalar(self):
        # 0-layer models extract seed-only blocks; a scalar must not fail
        assert resolve_fanout(10, 0) == []

    def test_numpy_integers_accepted(self):
        assert resolve_fanout(np.int64(4), 2) == [4, 4]
        assert resolve_fanout([np.int32(4), np.int64(2)], 2) == [4, 2]


class TestValidateFanout:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "10", True,
                                     [10, 0], [10, -2], [5, 2.0], []])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_fanout(bad)

    @pytest.mark.parametrize("ok", [1, 10, None, [10, 5], (1, None), [None]])
    def test_accepts(self, ok):
        validate_fanout(ok)


class TestParseFanout:
    def test_scalar(self):
        assert parse_fanout("10") == 10

    def test_zero_means_no_cap(self):
        assert parse_fanout("0") is None

    def test_comma_schedule(self):
        assert parse_fanout("10,5") == (10, 5)

    def test_zero_entry_in_schedule(self):
        assert parse_fanout("10,0,5") == (10, None, 5)

    def test_whitespace_tolerated(self):
        assert parse_fanout(" 10 , 5 ") == (10, 5)

    @pytest.mark.parametrize("bad", ["", "10,", ",5", "a", "10,b", "-1", "3,-2"])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fanout(bad)


class TestScheduleThreading:
    """Schedules reach the samplers, configs, and CLI."""

    def test_trainconfig_accepts_schedule_and_validates(self):
        from repro.train import TrainConfig

        assert TrainConfig(fanout=(10, 5)).fanout == (10, 5)
        with pytest.raises(ValueError):
            TrainConfig(fanout=(10, 0))

    def test_gnmr_config_accepts_schedule_and_validates(self):
        from repro.core import GNMRConfig

        assert GNMRConfig(fanout=(10, 5)).fanout == (10, 5)
        with pytest.raises(ValueError):
            GNMRConfig(fanout=[3, 0])

    def test_cli_fanout_parsing(self):
        from repro.cli import _FANOUT_UNSET, build_parser

        args = build_parser().parse_args(
            ["train", "--propagation", "async", "--fanout", "10,5"])
        assert args.fanout == (10, 5)
        # '--fanout 0' means "no cap" and must stay distinguishable from
        # the flag being absent (which defers to the model's default)
        args = build_parser().parse_args(["train", "--fanout", "0"])
        assert args.fanout is None
        assert build_parser().parse_args(["train"]).fanout is _FANOUT_UNSET

    def test_cli_bad_fanout_exits(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--fanout", "10,x"])
        assert "fanout" in capsys.readouterr().err

    def test_gnmr_config_schedule_length_fails_fast(self):
        # both knobs live on GNMRConfig, so a schedule/num_layers mismatch
        # must fail at construction, not mid-training from a worker thread
        from repro.core import GNMRConfig

        with pytest.raises(ValueError, match="3 entries.*2 hops"):
            GNMRConfig(num_layers=2, fanout=(4, 2, 1))

    def test_model_config_fanout_reaches_trainer_extraction(self, small_dataset):
        # TrainConfig defaults to fanout="model": the GNMRConfig schedule
        # must govern trainer-driven extraction
        from repro.core import GNMR, GNMRConfig
        from repro.train import TrainConfig, Trainer

        model = GNMR(small_dataset, GNMRConfig(pretrain=False, seed=0,
                                               num_layers=2, fanout=(4, 2)))
        seen = []
        original = model.engine.layered_subgraph

        def spy(*args, **kwargs):
            seen.append(kwargs.get("fanout"))
            return original(*args, **kwargs)

        model.engine.layered_subgraph = spy
        config = TrainConfig(epochs=1, steps_per_epoch=1, batch_users=4,
                             per_user=1, propagation="async", workers=0, seed=0)
        assert config.fanout == "model"
        Trainer(model, small_dataset, config).run()
        assert seen == [(4, 2)]

    def test_trainconfig_fanout_overrides_model_config(self, small_dataset):
        from repro.core import GNMR, GNMRConfig
        from repro.train import TrainConfig, Trainer

        model = GNMR(small_dataset, GNMRConfig(pretrain=False, seed=0,
                                               num_layers=2, fanout=(4, 2)))
        seen = []
        original = model.engine.layered_subgraph

        def spy(*args, **kwargs):
            seen.append(kwargs.get("fanout"))
            return original(*args, **kwargs)

        model.engine.layered_subgraph = spy
        config = TrainConfig(epochs=1, steps_per_epoch=1, batch_users=4,
                             per_user=1, propagation="async", workers=0,
                             seed=0, fanout=(6, 3))
        Trainer(model, small_dataset, config).run()
        assert seen == [(6, 3)]  # explicit TrainConfig schedule wins

    def test_schedule_length_enforced_at_extraction(self, small_dataset):
        from repro.core import GNMR, GNMRConfig

        model = GNMR(small_dataset, GNMRConfig(pretrain=False, seed=0,
                                               num_layers=2))
        with pytest.raises(ValueError, match="hops"):
            model.extract_block(
                np.array([0]), np.array([1]), np.array([2]),
                fanout=(10, 5, 3), rng=np.random.default_rng(0))

    def test_schedule_caps_each_hop(self, small_dataset):
        # hop-2 cap of 1 must bound the deepest frontier harder than 10
        from repro.core import GNMR, GNMRConfig

        model = GNMR(small_dataset, GNMRConfig(pretrain=False, seed=0,
                                               num_layers=2))
        users = np.arange(4); items = np.arange(8)
        wide = model.engine.layered_subgraph(
            users, items, hops=2, fanout=(4, 4), rng=np.random.default_rng(0))
        narrow = model.engine.layered_subgraph(
            users, items, hops=2, fanout=(4, 1), rng=np.random.default_rng(0))
        # level 0 is the widest set: everything the deepest hop reached
        assert (narrow.user_levels[0].size + narrow.item_levels[0].size
                <= wide.user_levels[0].size + wide.item_levels[0].size)


@pytest.fixture(scope="module")
def small_dataset():
    from repro.data import taobao_like

    return taobao_like(num_users=40, num_items=80, seed=0)

"""Tests of the scenario registry."""

import numpy as np
import pytest

from repro.data import (
    SCENARIOS,
    build_scenario,
    get_scenario,
    resolve_scenario,
    save_dataset_npz,
    taobao_like,
)


class TestRegistry:
    def test_expected_scenarios_present(self):
        names = tuple(SCENARIOS)
        for expected in ("tmall-like", "taobao-like", "movielens-10m-like",
                         "yelp-like", "gowalla-like"):
            assert expected in names

    def test_unknown_scenario_names_options(self):
        with pytest.raises(ValueError, match="tmall-like"):
            get_scenario("nope")

    def test_specs_are_consistent(self):
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert spec.target_behavior in spec.behavior_names
            assert spec.config.num_users > 0 and spec.config.num_items > 0
            assert spec.config.behaviors
            row = spec.describe()
            assert spec.target_behavior in row["target"]

    def test_build_matches_spec(self):
        for name, spec in SCENARIOS.items():
            dataset = build_scenario(name, num_users=30, num_items=50, seed=1)
            assert dataset.num_users == 30
            assert dataset.num_items == 50
            assert dataset.behavior_names == spec.behavior_names
            assert dataset.target_behavior == spec.target_behavior
            assert dataset.interaction_count() > 0

    def test_build_deterministic(self):
        a = build_scenario("tmall-like", num_users=20, num_items=40, seed=7)
        b = build_scenario("tmall-like", num_users=20, num_items=40, seed=7)
        for behavior in a.behavior_names:
            for left, right in zip(a.arrays(behavior), b.arrays(behavior)):
                np.testing.assert_array_equal(left, right)


class TestShapes:
    def test_tmall_funnel_densities(self):
        """Clicks dominate; buys are the sparsest funnel stage."""
        data = build_scenario("tmall-like", num_users=60, num_items=120)
        clicks = data.interaction_count("click")
        buys = data.interaction_count("buy")
        assert clicks > 4 * buys
        assert buys >= 60  # every user buys at least once

    def test_gowalla_single_behavior_long_tail(self):
        data = build_scenario("gowalla-like", num_users=80, num_items=160)
        assert data.behavior_names == ("checkin",)
        degrees = data.graph().adjacency("checkin").col_degrees()
        top = np.sort(degrees)[::-1]
        # heavy head: top 10% of venues take a disproportionate share
        head = top[: max(1, len(top) // 10)].sum()
        assert head > 0.2 * degrees.sum()


class TestResolve:
    def test_resolve_registry_name(self):
        data = resolve_scenario("gowalla-like", num_users=25, num_items=50)
        assert data.num_users == 25

    def test_resolve_artifact_path(self, tmp_path):
        source = taobao_like(num_users=15, num_items=30, seed=2)
        path = save_dataset_npz(source, tmp_path / "t.npz")
        loaded = resolve_scenario(str(path))
        assert loaded.num_users == source.num_users
        assert loaded.behavior_names == source.behavior_names

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenario("missing-thing")

    def test_resolve_missing_npz_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_scenario(str(tmp_path / "absent.npz"))


class TestExperimentIntegration:
    def test_dataset_by_name_resolves_scenarios(self):
        from repro.experiments import TINY_SCALE, dataset_by_name

        data = dataset_by_name("tmall-like", TINY_SCALE)
        assert data.num_users == TINY_SCALE.num_users
        assert data.target_behavior == "buy"

    def test_dataset_by_name_unknown_lists_both_catalogs(self):
        from repro.experiments import TINY_SCALE, dataset_by_name

        with pytest.raises(ValueError, match="gowalla-like"):
            dataset_by_name("nope", TINY_SCALE)

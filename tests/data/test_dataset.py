"""Tests of the InteractionDataset container."""

import numpy as np
import pytest

from repro.data import InteractionDataset


class TestBasics:
    def test_counts(self, tiny_dataset):
        assert tiny_dataset.num_behaviors == 2
        assert tiny_dataset.interaction_count() == 12
        assert tiny_dataset.interaction_count("buy") == 5

    def test_arrays_parallel(self, tiny_dataset):
        users, items, timestamps = tiny_dataset.arrays("view")
        assert users.shape == items.shape == timestamps.shape

    def test_user_target_items(self, tiny_dataset):
        np.testing.assert_array_equal(sorted(tiny_dataset.user_target_items(0)), [0, 1])

    def test_describe(self, tiny_dataset):
        row = tiny_dataset.describe()
        assert row["User #"] == 4 and row["target"] == "buy"

    def test_graph_cached(self, tiny_dataset):
        assert tiny_dataset.graph() is tiny_dataset.graph()


class TestValidation:
    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset("x", 2, 2, ("a",), "b",
                               {"a": {"users": np.array([0]), "items": np.array([0])}})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InteractionDataset("x", 2, 2, ("a",), "a",
                               {"a": {"users": np.array([0, 1]), "items": np.array([0])}})

    def test_missing_behavior_defaults_empty(self):
        ds = InteractionDataset("x", 2, 2, ("a", "b"), "a",
                                {"a": {"users": np.array([0]), "items": np.array([1])}})
        assert ds.interaction_count("b") == 0


class TestDerivedDatasets:
    def test_drop_behaviors(self, tiny_dataset):
        dropped = tiny_dataset.drop_behaviors(["view"])
        assert dropped.behavior_names == ("buy",)
        assert dropped.interaction_count() == 5
        assert dropped.num_users == tiny_dataset.num_users

    def test_cannot_drop_target(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.drop_behaviors(["buy"])

    def test_only_target(self, tiny_dataset):
        only = tiny_dataset.only_target()
        assert only.behavior_names == ("buy",)
        assert only.target_behavior == "buy"


def _dup_dataset() -> InteractionDataset:
    """Target behavior with repeated (user, item) rows."""
    return InteractionDataset(
        "dup", 2, 3, ("buy",), "buy",
        {"buy": {
            "users": np.array([0, 0, 0, 1, 0]),
            "items": np.array([2, 1, 2, 2, 2]),
            "timestamps": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }},
    )


class TestRemoveExactOccurrences:
    """Pinned regression: removal takes one ROW per request, never every
    occurrence of a repeated (user, item) pair."""

    def test_remove_rows_by_index(self):
        reduced = _dup_dataset().remove_target_rows(np.array([1, 3]))
        users, items, ts = reduced.arrays("buy")
        assert users.tolist() == [0, 0, 0]
        assert items.tolist() == [2, 2, 2]
        assert ts.tolist() == [1.0, 3.0, 5.0]

    def test_remove_rows_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            _dup_dataset().remove_target_rows(np.array([99]))
        with pytest.raises(ValueError, match="out of range"):
            _dup_dataset().remove_target_rows(np.array([-1]))

    def test_auxiliary_behaviors_untouched_by_row_removal(self, tiny_dataset):
        reduced = tiny_dataset.remove_target_rows(np.array([0]))
        assert reduced.interaction_count("view") == 7
        assert reduced.interaction_count("buy") == 4

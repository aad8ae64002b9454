"""Tests of the multi-behavior interaction graph."""

import numpy as np
import pytest

from repro.graph import MultiBehaviorGraph


@pytest.fixture
def graph(tiny_dataset):
    return tiny_dataset.graph()


class TestConstruction:
    def test_behavior_inventory(self, graph):
        assert graph.behavior_names == ("view", "buy")
        assert graph.num_behaviors == 2

    def test_mismatched_behaviors_rejected(self):
        with pytest.raises(ValueError):
            MultiBehaviorGraph(2, 2, ("a",), {"b": (np.array([0]), np.array([0]))})

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValueError):
            MultiBehaviorGraph(2, 2, ("a",), {"a": (np.array([5]), np.array([0]))})
        with pytest.raises(ValueError):
            MultiBehaviorGraph(2, 2, ("a",), {"a": (np.array([0]), np.array([7]))})

    def test_duplicate_edges_collapse(self):
        graph = MultiBehaviorGraph(
            2, 2, ("a",),
            {"a": (np.array([0, 0, 0]), np.array([1, 1, 1]))},
        )
        assert graph.interaction_count("a") == 1
        assert graph.adjacency("a").to_dense()[0, 1] == 1.0


class TestAdjacency:
    def test_binary_entries(self, graph):
        dense = graph.adjacency("view").to_dense()
        assert set(np.unique(dense)) <= {0.0, 1.0}

    def test_user_items(self, graph):
        np.testing.assert_array_equal(sorted(graph.user_items("view", 0)), [0, 1])
        np.testing.assert_array_equal(graph.user_items("buy", 2), [3])

    def test_degrees(self, graph):
        np.testing.assert_array_equal(graph.user_degree("buy"), [2, 1, 1, 1])
        assert (graph.adjacency("view").col_degrees().sum()
                == graph.interaction_count("view"))

    def test_row_normalized_rows(self, graph):
        normalized = graph.adjacency("view").normalized("row").to_dense()
        sums = normalized.sum(axis=1)
        for user in range(4):
            expected = 1.0 if graph.user_degree("view")[user] > 0 else 0.0
            assert sums[user] == pytest.approx(expected)


class TestMergedView:
    def test_union_semantics(self, graph):
        merged = graph.merged_adjacency().to_dense()
        view = graph.adjacency("view").to_dense()
        buy = graph.adjacency("buy").to_dense()
        np.testing.assert_array_equal(merged, np.clip(view + buy, 0, 1))

    def test_cached(self, graph):
        assert graph.merged_adjacency() is graph.merged_adjacency()


class TestStats:
    def test_counts(self, graph):
        stats = graph.stats()
        assert stats.num_users == 4 and stats.num_items == 5
        assert stats.num_interactions == 12
        assert stats.interactions_per_behavior == {"view": 7, "buy": 5}
        assert 0 < stats.density < 1

    def test_as_row_format(self, graph):
        row = graph.stats().as_row()
        assert row["User #"] == 4
        assert row["Interactive Behavior Type"] == "{view, buy}"

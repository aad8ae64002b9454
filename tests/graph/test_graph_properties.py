"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import MultiBehaviorGraph, NegativeSampler


@st.composite
def random_graph(draw):
    num_users = draw(st.integers(min_value=2, max_value=12))
    num_items = draw(st.integers(min_value=3, max_value=15))
    num_behaviors = draw(st.integers(min_value=1, max_value=3))
    names = tuple(f"b{k}" for k in range(num_behaviors))
    interactions = {}
    for name in names:
        count = draw(st.integers(min_value=0, max_value=30))
        users = draw(st.lists(st.integers(0, num_users - 1),
                              min_size=count, max_size=count))
        items = draw(st.lists(st.integers(0, num_items - 1),
                              min_size=count, max_size=count))
        interactions[name] = (np.array(users, dtype=np.int64),
                              np.array(items, dtype=np.int64))
    return MultiBehaviorGraph(num_users, num_items, names, interactions)


@given(random_graph())
@settings(max_examples=30, deadline=None)
def test_adjacency_is_binary(graph):
    for behavior in graph.behavior_names:
        dense = graph.adjacency(behavior).to_dense()
        assert set(np.unique(dense)) <= {0.0, 1.0}


@given(random_graph())
@settings(max_examples=30, deadline=None)
def test_degrees_match_adjacency(graph):
    for behavior in graph.behavior_names:
        dense = graph.adjacency(behavior).to_dense()
        np.testing.assert_allclose(graph.user_degree(behavior), dense.sum(axis=1))
        np.testing.assert_allclose(graph.adjacency(behavior).col_degrees(),
                                   dense.sum(axis=0))


@given(random_graph())
@settings(max_examples=30, deadline=None)
def test_merged_is_union(graph):
    merged = graph.merged_adjacency().to_dense()
    union = np.zeros_like(merged)
    for behavior in graph.behavior_names:
        union = np.maximum(union, graph.adjacency(behavior).to_dense())
    np.testing.assert_allclose(merged, union)


@given(random_graph())
@settings(max_examples=30, deadline=None)
def test_row_normalization_is_stochastic(graph):
    for behavior in graph.behavior_names:
        normalized = graph.adjacency(behavior).normalized("row").to_dense()
        sums = normalized.sum(axis=1)
        degrees = graph.user_degree(behavior)
        for row_sum, degree in zip(sums, degrees):
            expected = 1.0 if degree > 0 else 0.0
            assert abs(row_sum - expected) < 1e-9


@given(random_graph())
@settings(max_examples=30, deadline=None)
def test_stats_totals_consistent(graph):
    stats = graph.stats()
    assert stats.num_interactions == sum(stats.interactions_per_behavior.values())
    assert stats.num_interactions == graph.interaction_count()


@given(random_graph(), st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=30, deadline=None)
def test_negative_sampler_never_collides(graph, seed):
    behavior = graph.behavior_names[0]
    sampler = NegativeSampler(graph, behavior)
    rng = np.random.default_rng(seed)
    for user in range(graph.num_users):
        if not sampler.can_sample(user):
            continue
        drawn = sampler.sample(user, 3, rng)
        positives = sampler.positives(user)
        assert not (set(drawn.tolist()) & positives)
        assert ((drawn >= 0) & (drawn < graph.num_items)).all()

"""Tests of negative sampling and pairwise batch construction."""

import numpy as np
import pytest

from repro.graph import NegativeSampler, sample_pairwise_batch, sample_seed_nodes


@pytest.fixture
def graph(tiny_dataset):
    return tiny_dataset.graph()


class TestNegativeSampler:
    def test_never_returns_positives(self, graph, rng):
        sampler = NegativeSampler(graph, "buy")
        for user in range(4):
            positives = sampler.positives(user)
            for _ in range(20):
                drawn = sampler.sample(user, 3, rng)
                assert not (set(drawn.tolist()) & positives)

    def test_extra_exclusions_respected(self, graph, rng):
        sampler = NegativeSampler(graph, "buy", extra_exclude={0: {2, 3, 4}})
        # user 0 bought {0,1}, extra excludes {2,3,4} → nothing left
        with pytest.raises(ValueError):
            sampler.sample(0, 1, rng)

    def test_sample_count(self, graph, rng):
        sampler = NegativeSampler(graph, "buy")
        assert sampler.sample(1, 3, rng).shape == (3,)

    def test_positives_reflect_behavior(self, graph):
        sampler = NegativeSampler(graph, "view")
        assert sampler.positives(2) == {3}


class TestSeedSampling:
    def test_without_replacement(self, rng):
        seeds = sample_seed_nodes(10, 10, rng)
        assert len(set(seeds.tolist())) == 10

    def test_clamped_to_population(self, rng):
        assert sample_seed_nodes(3, 100, rng).shape == (3,)


class TestPairwiseBatch:
    def test_structure(self, graph, rng):
        sampler = NegativeSampler(graph, "buy")
        batch = sample_pairwise_batch(graph, "buy", sampler, batch_users=4,
                                      per_user=2, rng=rng)
        assert len(batch) == 8
        assert batch.users.shape == batch.pos_items.shape == batch.neg_items.shape

    def test_positives_are_real(self, graph, rng):
        sampler = NegativeSampler(graph, "buy")
        batch = sample_pairwise_batch(graph, "buy", sampler, 4, 3, rng)
        for user, item in zip(batch.users, batch.pos_items):
            assert item in graph.user_items("buy", int(user))

    def test_negatives_are_not_positives(self, graph, rng):
        sampler = NegativeSampler(graph, "buy")
        batch = sample_pairwise_batch(graph, "buy", sampler, 4, 3, rng)
        for user, item in zip(batch.users, batch.neg_items):
            assert item not in graph.user_items("buy", int(user))

    def test_eligible_users_respected(self, graph, rng):
        sampler = NegativeSampler(graph, "buy")
        eligible = np.array([1, 2])
        batch = sample_pairwise_batch(graph, "buy", sampler, 10, 2, rng,
                                      eligible_users=eligible)
        assert set(batch.users.tolist()) <= {1, 2}

    def test_no_eligible_users_raises(self, rng, tiny_dataset):
        from repro.graph import MultiBehaviorGraph

        empty = MultiBehaviorGraph(
            2, 2, ("buy",),
            {"buy": (np.array([], dtype=int), np.array([], dtype=int))},
        )
        sampler = NegativeSampler(empty, "buy")
        with pytest.raises(ValueError):
            sample_pairwise_batch(empty, "buy", sampler, 2, 1, rng)

    def test_deterministic_given_seed(self, graph):
        sampler = NegativeSampler(graph, "buy")
        a = sample_pairwise_batch(graph, "buy", sampler, 4, 2, np.random.default_rng(5))
        b = sample_pairwise_batch(graph, "buy", sampler, 4, 2, np.random.default_rng(5))
        np.testing.assert_array_equal(a.users, b.users)
        np.testing.assert_array_equal(a.pos_items, b.pos_items)
        np.testing.assert_array_equal(a.neg_items, b.neg_items)

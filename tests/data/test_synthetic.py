"""Tests of the synthetic generator, its presets and their guarantees."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.data import (
    SyntheticConfig,
    build_scenario,
    generate_multi_behavior_dataset,
    leave_one_out_split,
    movielens_like,
    taobao_like,
    yelp_like,
)
from repro.data.synthetic import MIN_TARGET, TAOBAO

#: every preset of the generator: the paper's three schemas (by their
#: preset functions) and the five registry scenarios
PRESETS = {
    "movielens": lambda n, m, s: movielens_like(n, m, seed=s),
    "yelp": lambda n, m, s: yelp_like(n, m, seed=s),
    "taobao": lambda n, m, s: taobao_like(n, m, seed=s),
    "tmall-like": lambda n, m, s: build_scenario("tmall-like", n, m, s),
    "taobao-like": lambda n, m, s: build_scenario("taobao-like", n, m, s),
    "movielens-10m-like": lambda n, m, s: build_scenario("movielens-10m-like", n, m, s),
    "yelp-like": lambda n, m, s: build_scenario("yelp-like", n, m, s),
    "gowalla-like": lambda n, m, s: build_scenario("gowalla-like", n, m, s),
}
SCHEMAS = {
    "movielens": ("dislike", "neutral", "like"),
    "movielens-10m-like": ("dislike", "neutral", "like"),
    "yelp": ("tip", "dislike", "neutral", "like"),
    "yelp-like": ("tip", "dislike", "neutral", "like"),
    "taobao": ("page_view", "favorite", "cart", "purchase"),
    "taobao-like": ("page_view", "favorite", "cart", "purchase"),
    "tmall-like": ("click", "fav", "cart", "buy"),
    "gowalla-like": ("checkin",),
}
FUNNELS = {  # (exposure, cart, purchase) of the e-commerce presets
    "taobao": ("page_view", "cart", "purchase"),
    "taobao-like": ("page_view", "cart", "purchase"),
    "tmall-like": ("click", "cart", "buy"),
}
RATED = ("movielens", "movielens-10m-like", "yelp", "yelp-like")
RATED_BANDS = ("dislike", "neutral", "like")


def _pairs(data, behavior):
    users, items, _ = data.arrays(behavior)
    return set(zip(users.tolist(), items.tolist()))


class TestGenericGenerator:
    def test_requires_specs(self):
        with pytest.raises(ValueError, match="must not be empty"):
            generate_multi_behavior_dataset(SyntheticConfig())

    def test_rating_mode_takes_one_stream(self):
        cfg = SyntheticConfig(ratings="paper",
                              behaviors={"a": (0.5, 5.0), "b": (0.5, 5.0)})
        with pytest.raises(ValueError, match="exactly one rated behavior"):
            generate_multi_behavior_dataset(cfg)

    def test_funnel_source_must_come_earlier(self):
        cfg = SyntheticConfig(behaviors={"view": (0.5, 5.0, 1.0, "buy"),
                                         "buy": (0.9, 3.0)})
        with pytest.raises(ValueError, match="not an earlier behavior"):
            generate_multi_behavior_dataset(cfg)

    def test_funnel_needs_a_source(self):
        cfg = SyntheticConfig(behaviors={"view": (0.5, 5.0),
                                         "buy": (0.9, 3.0, 0.5)})
        with pytest.raises(ValueError, match="funnel source ''"):
            generate_multi_behavior_dataset(cfg)

    def test_shapes_and_ranges(self):
        cfg = SyntheticConfig(num_users=30, num_items=40, seed=5,
                              behaviors={"view": (0.3, 8.0), "like": (0.9, 3.0)})
        data = generate_multi_behavior_dataset(cfg)
        assert data.num_users == 30 and data.num_items == 40
        assert data.target_behavior == "like"
        for behavior in ("view", "like"):
            users, items, _ = data.arrays(behavior)
            assert users.min() >= 0 and users.max() < 30
            assert items.min() >= 0 and items.max() < 40

    def test_deterministic(self):
        cfg = SyntheticConfig(num_users=20, num_items=30, seed=9,
                              behaviors={"like": (0.9, 4.0)})
        a = generate_multi_behavior_dataset(cfg)
        b = generate_multi_behavior_dataset(cfg)
        for left, right in zip(a.arrays("like"), b.arrays("like")):
            np.testing.assert_array_equal(left, right)

    def test_scale_multiplies_every_rate(self):
        base = taobao_like(80, 120, seed=4)
        dense = taobao_like(80, 120, seed=4, scale=2.0)
        assert dense.interaction_count("page_view") > 1.5 * base.interaction_count("page_view")

    def test_tracemalloc_peak_at_a_large_catalogue(self):
        """5 000 × 50 000 tmall-like: the generator holds O(events) arrays.
        A users × items float64 matrix at this shape is 2 GB; the build
        peaks at 13.4 MB (2026-10-16), so 64 MB is a loose ceiling."""
        tracemalloc.start()
        try:
            data = build_scenario("tmall-like", 5000, 50000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.interaction_count() > 200_000
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestMovieLensLike:
    def test_schema(self):
        data = movielens_like(num_users=30, num_items=50, seed=1)
        assert data.behavior_names == ("dislike", "neutral", "like")
        assert data.target_behavior == "like"

    def test_every_user_has_ratings(self):
        data = movielens_like(num_users=30, num_items=50, seed=1)
        total = np.zeros(30)
        for behavior in data.behavior_names:
            users, _, _ = data.arrays(behavior)
            np.add.at(total, users, 1)
        assert (total >= 2).all()

    def test_like_is_plurality_behavior(self):
        """Most rated items sit in the user's cluster, so 'like' leads."""
        data = movielens_like(num_users=60, num_items=80, seed=2)
        counts = {b: data.interaction_count(b) for b in data.behavior_names}
        assert counts["like"] == max(counts.values())
        assert counts["like"] > counts["dislike"]


class TestYelpLike:
    def test_schema(self):
        data = yelp_like(num_users=30, num_items=50, seed=1)
        assert data.behavior_names == ("tip", "dislike", "neutral", "like")
        assert data.target_behavior == "like"

    def test_has_tips(self):
        data = yelp_like(num_users=40, num_items=60, seed=3)
        assert data.interaction_count("tip") > 0


class TestTaobaoLike:
    def test_schema(self):
        data = taobao_like(num_users=30, num_items=50, seed=1)
        assert data.behavior_names == ("page_view", "favorite", "cart", "purchase")
        assert data.target_behavior == "purchase"

    def test_funnel_shape(self):
        """Views ≫ carts ≥ purchases — the e-commerce funnel."""
        data = taobao_like(num_users=60, num_items=90, seed=4)
        views = data.interaction_count("page_view")
        carts = data.interaction_count("cart")
        purchases = data.interaction_count("purchase")
        assert views > carts
        assert views > purchases

    def test_every_user_purchases_at_least_twice(self):
        """Guaranteed so leave-one-out always keeps a training edge."""
        data = taobao_like(num_users=50, num_items=70, seed=5)
        users, _, _ = data.arrays("purchase")
        counts = np.bincount(users, minlength=50)
        assert (counts >= 2).all()

    def test_purchase_mix_of_funnel_and_direct(self):
        """Purchases mix funnel buys (viewed first) with direct buys that
        leave no view trace — neither path should dominate completely."""
        data = taobao_like(num_users=60, num_items=120, seed=6)
        bought = _pairs(data, "purchase")
        share = len(bought & _pairs(data, "page_view")) / len(bought)
        assert 0.15 < share < 0.9

    def test_direct_fraction_knob(self):
        """More direct purchases (a smaller funnel share) → a smaller
        viewed-first share."""
        def viewed_share(direct_fraction):
            behaviors = dict(TAOBAO.behaviors,
                             purchase=(0.75, 3.5, 1.0 - direct_fraction, "cart"))
            data = generate_multi_behavior_dataset(
                replace(TAOBAO, behaviors=behaviors).at(50, 100, seed=6))
            bought = _pairs(data, "purchase")
            return len(bought & _pairs(data, "page_view")) / len(bought)

        assert viewed_share(0.2) > viewed_share(0.9)

    def test_timestamps_in_range(self):
        data = taobao_like(num_users=20, num_items=40, seed=7)
        for behavior in data.behavior_names:
            _, _, timestamps = data.arrays(behavior)
            assert timestamps.min() >= 0.0
            assert timestamps.max() <= 1.5


class TestBehaviorCorrelation:
    def test_auxiliary_behaviors_carry_signal(self):
        """Items a user favorites overlap their purchases more than chance."""
        data = taobao_like(num_users=80, num_items=100, seed=8)
        graph = data.graph()
        fav = graph.adjacency("favorite").to_dense()
        buy = graph.adjacency("purchase").to_dense()
        overlap = (fav * buy).sum() / buy.sum()
        # chance level would be fav density ≈ fav.mean()
        assert overlap > 3 * fav.mean()


@pytest.mark.parametrize("preset", sorted(PRESETS))
class TestPresetAssumptions:
    """Each preset keeps its schema and the assumptions the paper's
    claims rest on."""

    @pytest.fixture
    def data(self, preset):
        return PRESETS[preset](120, 240, 3)

    def test_schema(self, preset, data):
        assert data.behavior_names == SCHEMAS[preset]
        assert data.target_behavior == SCHEMAS[preset][-1]
        assert (data.num_users, data.num_items) == (120, 240)

    def test_every_user_holds_two_distinct_targets(self, data):
        """So leave-one-out always keeps a training edge."""
        users, items, _ = data.arrays(data.target_behavior)
        assert (np.bincount(users, minlength=data.num_users) >= MIN_TARGET).all()
        assert len(_pairs(data, data.target_behavior)) == users.size

    def test_long_tail_head_share(self, data):
        """The top 10 % of items take over 30 % of all events (0.34–0.76
        here; an offset of 10 ranks flattens a 40-item cluster to 0.21–0.42)."""
        degrees = np.zeros(data.num_items)
        for behavior in data.behavior_names:
            np.add.at(degrees, data.arrays(behavior)[1], 1)
        head = np.sort(degrees)[::-1][: data.num_items // 10].sum()
        assert head > 0.3 * degrees.sum()


@pytest.mark.parametrize("preset", sorted(FUNNELS))
def test_funnel_order_and_mixed_purchases(preset):
    data = PRESETS[preset](120, 240, 3)
    view, cart, buy = FUNNELS[preset]
    counts = [data.interaction_count(b) for b in (view, cart, buy)]
    assert counts[0] > 4 * counts[2] and counts[0] > counts[1] > counts[2]
    # every cart is viewed first; purchases mix cart conversions with
    # direct buys that leave no view trace — neither dominates
    assert _pairs(data, cart) <= _pairs(data, view)
    bought = _pairs(data, buy)
    assert 0.3 < len(bought & _pairs(data, view)) / len(bought) < 0.95
    assert len(bought & _pairs(data, cart)) / len(bought) > 0.2


@pytest.mark.parametrize("preset", sorted(FUNNELS))
def test_held_out_purchase_is_mostly_a_direct_buy(preset):
    """Direct buys come after the exposure window, so the latest purchase
    (the leave-one-out test item) mostly has no cart trace."""
    data = PRESETS[preset](120, 240, 3)
    split = leave_one_out_split(data)
    held = set(zip(split.test_users.tolist(), split.test_items.tolist()))
    assert len(held & _pairs(data, FUNNELS[preset][1])) / len(held) < 0.5


@pytest.mark.parametrize("preset", RATED)
def test_rating_partition(preset):
    data = PRESETS[preset](120, 240, 3)
    counts = {b: data.interaction_count(b) for b in RATED_BANDS}
    assert counts["like"] == max(counts.values()) and counts["dislike"] > 0
    # the partition is a partition: a rated pair lands in one band only
    bands = [_pairs(data, b) for b in counts]
    assert sum(map(len, bands)) == len(set().union(*bands))
    if "tip" in data.behavior_names:
        tips = _pairs(data, "tip")
        assert tips and tips <= set().union(*bands)
        # satisfied visitors tip more: likes are over-represented
        assert len(tips & bands[2]) / len(tips) > counts["like"] / sum(counts.values())


@pytest.mark.parametrize("preset", RATED)
def test_saturated_ratings_keep_one_band_per_pair(preset):
    """At 40 × 30 a user rates most of the catalogue, so topping up the
    likes must not re-draw a pair already rated into another band."""
    data = PRESETS[preset](40, 30, 3)
    bands = [_pairs(data, b) for b in RATED_BANDS]
    assert sum(map(len, bands)) == len(set().union(*bands))
    assert (np.bincount(data.arrays("like")[0], minlength=40) >= MIN_TARGET).all()


@pytest.mark.parametrize("preset", sorted(set(PRESETS) - {"gowalla-like"}))
def test_auxiliary_behaviors_carry_signal(preset):
    """A user's auxiliary items overlap their target items far more than
    the auxiliary density alone would give by chance."""
    data = PRESETS[preset](120, 240, 3)
    graph = data.graph()
    target = graph.adjacency(data.target_behavior).to_dense()
    for behavior in data.behavior_names[:-1]:
        if behavior in ("dislike", "neutral"):
            continue  # disjoint from 'like' by the partition
        aux = graph.adjacency(behavior).to_dense()
        overlap = (aux * target).sum() / target.sum()
        assert overlap > 2 * aux.mean(), behavior

"""Synthetic multi-behavior datasets: one O(events) generator, its presets.

The paper's datasets cannot be downloaded here, so every dataset is a
preset of one cluster-mixture generator. Each assumption the paper's
claims rest on is carried by one parameter (``docs/data.md`` tables
them). Cost is O(events + items): no per-user loop, no users × items
array. The target is the last behavior; every user holds at least
``MIN_TARGET`` distinct target items, so leave-one-out keeps a train edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from repro.data.dataset import InteractionDataset

#: the Zipf–Mandelbrot offset as a share of the ranked list's length, so
#: a 40-item cluster and the whole catalogue get the same head share
ZIPF_OFFSET = 0.005
#: behaviors without a funnel fill [0, EXPOSURE_END); a funnel event
#: follows its source within FUNNEL_LAG; a funnel behavior's direct draws
#: come after the exposure window, as a log window truncates history
EXPOSURE_END, FUNNEL_LAG = 0.7, 0.1
#: items per preference cluster, within [MIN_CLUSTERS, MAX_CLUSTERS] clusters
CLUSTER_ITEMS, MIN_CLUSTERS, MAX_CLUSTERS = 40, 4, 50
#: the paper's rating partition (§IV-A)
RATING_BEHAVIORS = ("dislike", "neutral", "like")
#: a rating is 3 + 1.2·(±1 + RATING_NOISE·N(0, 1)), + inside the user's cluster
RATING_NOISE = 0.8
#: P(tip | rating r) = TIP_BASE + TIP_SLOPE·(r − 3): satisfied visitors tip
TIP_BASE, TIP_SLOPE = 0.15, 0.1
#: distinct target items per user, so leave-one-out keeps a training edge
MIN_TARGET = 2

Events = tuple[np.ndarray, np.ndarray, np.ndarray]  # users, items, timestamps


class Behavior(NamedTuple):
    """How one behavior's events are drawn (a plain tuple works too)."""

    alignment: float      # share of direct draws inside the user's cluster
    rate: float           # mean events per user, before de-duplication
    funnel: float = 0.0   # share of events re-drawn from ``source``'s events
    source: str = ""      # an earlier behavior, required when funnel > 0


@dataclass(frozen=True)
class SyntheticConfig:
    """One dataset shape; :meth:`at` re-sizes it. ``behaviors`` maps name →
    :class:`Behavior` fields, in order, the last one the target; with
    ``ratings`` (``"paper"`` / ``"tip"``) it holds the one rated stream."""

    name: str = "synthetic"
    num_users: int = 200
    num_items: int = 300
    seed: int = 0
    behaviors: dict[str, tuple] = field(default_factory=dict)
    popularity_skew: float = 1.0
    ratings: str = ""

    @property
    def behavior_names(self) -> tuple[str, ...]:
        if not self.behaviors:
            raise ValueError("behaviors must not be empty")
        if not self.ratings:
            return tuple(self.behaviors)
        if self.ratings not in ("paper", "tip") or len(self.behaviors) != 1:
            raise ValueError("ratings must be 'paper' or 'tip', over exactly "
                             "one rated behavior")
        return ("tip",) * (self.ratings == "tip") + RATING_BEHAVIORS

    @property
    def target_behavior(self) -> str:
        return self.behavior_names[-1]

    def at(self, num_users: int | None = None, num_items: int | None = None,
           seed: int | None = None, scale: float = 1.0) -> "SyntheticConfig":
        """The same shape at another size and seed, every rate × ``scale``."""
        return replace(
            self, num_users=num_users or self.num_users,
            num_items=num_items or self.num_items,
            seed=self.seed if seed is None else seed,
            behaviors={name: Behavior(*spec)._replace(rate=spec[1] * scale)
                       for name, spec in self.behaviors.items()})


def _zipf(n: int, skew: float, size: int,
          rng: np.random.Generator) -> np.ndarray:
    """``size`` ranks in ``[0, n)`` under the Zipf–Mandelbrot law."""
    cdf = np.cumsum((np.arange(n, dtype=np.float64) + ZIPF_OFFSET * n) ** -skew)
    draws = rng.random(size) * cdf[-1]
    return np.minimum(np.searchsorted(cdf, draws, side="right"), n - 1)


def _distinct(users: np.ndarray, items: np.ndarray, times: np.ndarray,
              num_items: int) -> Events:
    """The first event of every (user, item) pair, ordered by user."""
    _, first = np.unique(users * num_items + items, return_index=True)
    return users[first], items[first], times[first]


def generate_multi_behavior_dataset(cfg: SyntheticConfig) -> InteractionDataset:
    """Draw every behavior's events of ``cfg`` at once (O(events))."""
    names = cfg.behavior_names
    rng = np.random.default_rng(cfg.seed)
    num_users, num_items = cfg.num_users, cfg.num_items
    clusters = min(int(np.clip(num_items // CLUSTER_ITEMS, MIN_CLUSTERS,
                               MAX_CLUSTERS)), num_items)
    per_cluster = num_items // clusters
    activity = rng.lognormal(0.0, 0.5, size=num_users)
    activity /= activity.mean()
    user_cluster = rng.integers(0, clusters, size=num_users)
    # popularity slot → item; cluster c owns slots c, c+C, c+2C, …, so an
    # item popular inside its cluster is popular across the catalogue too
    slot_item = rng.permutation(num_items)
    item_cluster = np.full(num_items, -1)
    item_cluster[slot_item[:per_cluster * clusters]] = (
        np.arange(per_cluster * clusters) % clusters)

    def direct(users: np.ndarray, alignment: float) -> np.ndarray:
        local = rng.random(users.size) < alignment
        slots = _zipf(num_items, cfg.popularity_skew, users.size, rng)
        ranks = _zipf(per_cluster, cfg.popularity_skew, int(local.sum()), rng)
        slots[local] = ranks * clusters + user_cluster[users[local]]
        return slot_item[slots]

    def funnel(users: np.ndarray, alignment: float, source: Events):
        """One of each user's ``source`` events — an in-cluster one with
        probability ``alignment`` when the user has any."""
        src_users, src_items, src_times = source
        inside = item_cluster[src_items] == user_cluster[src_users]
        order = np.argsort(2 * src_users + ~inside, kind="stable")
        total = np.bincount(src_users, minlength=num_users)
        local = np.bincount(src_users[inside], minlength=num_users)
        prefer = (rng.random(users.size) < alignment) & (local[users] > 0)
        span = np.where(prefer, local[users], total[users])
        pick = order[(np.cumsum(total) - total)[users]
                     + (rng.random(users.size) * span).astype(np.int64)]
        return src_items[pick], src_times[pick]

    def direct_times(size: int, spec: Behavior) -> np.ndarray:
        if spec.funnel:  # after the exposure window
            return EXPOSURE_END + (1.0 - EXPOSURE_END) * rng.random(size)
        return EXPOSURE_END * rng.random(size)

    events: dict[str, Events] = {}
    taken = np.empty(0, dtype=np.int64)  # pairs the target top-up may not draw
    for name, spec in cfg.behaviors.items():
        spec = Behavior(*spec)
        users = np.repeat(np.arange(num_users),
                          rng.poisson(spec.rate * activity))
        items = np.empty(users.size, dtype=np.int64)
        times = direct_times(users.size, spec)
        via = rng.random(users.size) < spec.funnel
        if spec.funnel:
            if spec.source not in events:
                raise ValueError(f"{name!r}: funnel source {spec.source!r} "
                                 f"is not an earlier behavior")
            source = events[spec.source]
            via &= np.bincount(source[0], minlength=num_users)[users] > 0
            items[via], source_times = funnel(users[via], spec.alignment,
                                              source)
            times[via] = source_times + FUNNEL_LAG * rng.random(int(via.sum()))
        items[~via] = direct(users[~via], spec.alignment)
        events[name] = _distinct(users, items, times, num_items)

    if cfg.ratings:
        users, items, times = events.pop(next(iter(cfg.behaviors)))
        taken = users * num_items + items  # a rated pair keeps its one band
        inside = item_cluster[items] == user_cluster[users]
        rating = 3.0 + 1.2 * (np.where(inside, 1.0, -1.0)
                              + RATING_NOISE * rng.standard_normal(users.size))
        band = (rating > 2.0).astype(int) + (rating >= 4.0)
        if cfg.ratings == "tip":
            tip = rng.random(users.size) < TIP_BASE + TIP_SLOPE * (rating - 3.0)
            later = times[tip] + (1.0 - times[tip]) * rng.random(int(tip.sum()))
            events["tip"] = users[tip], items[tip], later
        for code, name in enumerate(RATING_BEHAVIORS):
            events[name] = users[band == code], items[band == code], times[band == code]

    # top up the target with direct draws until every user holds
    # MIN_TARGET distinct items (a few vectorised rounds, bounded)
    users, items, times = events[cfg.target_behavior]
    for _ in range(64):
        held = np.bincount(users, minlength=num_users)
        short = np.repeat(np.arange(num_users), np.maximum(MIN_TARGET - held, 0))
        if short.size == 0:
            break
        drawn = direct(short, spec.alignment)  # the last spec: target or rated
        new = ~np.isin(short * num_items + drawn, taken)
        users, items, times = _distinct(
            np.concatenate([users, short[new]]), np.concatenate([items, drawn[new]]),
            np.concatenate([times, direct_times(short.size, spec)[new]]),
            num_items)
    events[cfg.target_behavior] = users, items, times

    return InteractionDataset(
        name=cfg.name, num_users=num_users, num_items=num_items,
        behavior_names=names, target_behavior=cfg.target_behavior,
        interactions={name: dict(zip(("users", "items", "timestamps"),
                                     events[name])) for name in names})


#: MovieLens: dense explicit ratings, partitioned as the paper does
MOVIELENS = SyntheticConfig(name="movielens-like", seed=0, ratings="paper",
                            behaviors={"rating": (0.8, 24.0)})
#: Yelp: rating-derived behaviors plus a satisfaction-biased tip
YELP = SyntheticConfig(name="yelp-like", seed=1, ratings="tip",
                       behaviors={"rating": (0.8, 18.0)})
#: Taobao: exploratory page views; favorites and carts are in-cluster
#: leaning subsets of the views; 45 % of purchases convert carts, the
#: rest are later direct buys that leave no view trace
TAOBAO = SyntheticConfig(name="taobao-like", seed=2, behaviors={
    "page_view": (0.35, 30.0),
    "favorite": (0.6, 6.0, 1.0, "page_view"),
    "cart": (0.6, 8.0, 1.0, "page_view"),
    "purchase": (0.75, 3.5, 0.45, "cart"),
})


def movielens_like(num_users: int = 200, num_items: int = 300,
                   seed: int = 0, scale: float = 1.0) -> InteractionDataset:
    """MovieLens-like data: ratings mapped to {dislike, neutral, like}."""
    return generate_multi_behavior_dataset(
        MOVIELENS.at(num_users, num_items, seed, scale))


def yelp_like(num_users: int = 200, num_items: int = 300,
              seed: int = 1, scale: float = 1.0) -> InteractionDataset:
    """Yelp-like data: rating-derived behaviors plus a 'tip' behavior."""
    return generate_multi_behavior_dataset(
        YELP.at(num_users, num_items, seed, scale))


def taobao_like(num_users: int = 200, num_items: int = 300,
                seed: int = 2, scale: float = 1.0) -> InteractionDataset:
    """Taobao-like data: the page-view → favorite/cart → purchase funnel."""
    return generate_multi_behavior_dataset(
        TAOBAO.at(num_users, num_items, seed, scale))


def synthesize_attributes(dataset: InteractionDataset, num_features: int = 8,
                          noise: float = 0.5, seed: int = 0) -> InteractionDataset:
    """Attach synthetic user/item attribute features to a dataset.

    Implements the data side of the paper's future-work extension
    ("exploring the attribute features from user and item side"): features
    are spectral coordinates of the merged interaction matrix (truncated
    SVD) perturbed with Gaussian noise, so they correlate with true
    preference without simply duplicating the training edges.

    Returns a new dataset sharing the interactions, with
    ``user_features`` (I×F) and ``item_features`` (J×F) attached.
    """
    if num_features <= 0:
        raise ValueError("num_features must be positive")
    rng = np.random.default_rng(seed)
    merged = dataset.graph().merged_adjacency().to_dense()
    u, s, vt = np.linalg.svd(merged, full_matrices=False)
    k = min(num_features, s.size)
    scale = np.sqrt(s[:k])
    user_features = u[:, :k] * scale
    item_features = vt[:k].T * scale
    for features in (user_features, item_features):
        spread = features.std() or 1.0
        features += noise * spread * rng.standard_normal(features.shape)
    if k < num_features:  # pad with pure-noise columns to the requested width
        pad = num_features - k
        user_features = np.hstack([user_features, rng.standard_normal((dataset.num_users, pad))])
        item_features = np.hstack([item_features, rng.standard_normal((dataset.num_items, pad))])
    return InteractionDataset(
        name=f"{dataset.name}+attrs",
        num_users=dataset.num_users,
        num_items=dataset.num_items,
        behavior_names=dataset.behavior_names,
        target_behavior=dataset.target_behavior,
        interactions={b: dict(zip(("users", "items", "timestamps"),
                                  dataset.arrays(b)))
                      for b in dataset.behavior_names},
        user_features=user_features,
        item_features=item_features,
    )

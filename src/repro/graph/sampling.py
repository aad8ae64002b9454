"""Sampling utilities for pairwise training (Algorithm 1 of the paper).

Each training step samples seed users, then for each user ``S`` positive
items (interacted under the target behavior) and ``S`` negative items
(never interacted under the target behavior).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.interaction_graph import MultiBehaviorGraph


@dataclass
class PairwiseBatch:
    """A mini-batch of (user, positive item, negative item) triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


class NegativeSampler:
    """Uniform negative sampler with rejection against observed positives.

    Positives are defined w.r.t. a fixed behavior (usually the target).
    The per-user positive sets are *views into the behavior's CSR arrays*
    — construction is O(1) Python work regardless of the user count
    (formerly an O(U) loop materializing one hash set per user), and
    rejection tests an entire draw vector at once with a ``searchsorted``
    membership check against the user's sorted positive row.
    """

    def __init__(self, graph: MultiBehaviorGraph, behavior: str,
                 extra_exclude: dict[int, set[int]] | None = None):
        self.num_items = graph.num_items
        matrix = graph.adjacency(behavior).matrix
        if not matrix.has_sorted_indices:
            matrix.sort_indices()
        self._indptr = matrix.indptr
        self._indices = matrix.indices.astype(np.int64, copy=False)
        # users with extra exclusions get a private merged (sorted) row;
        # everyone else keeps the zero-copy CSR slice
        self._overrides: dict[int, np.ndarray] = {}
        if extra_exclude:
            for user, items in extra_exclude.items():
                base = self._csr_row(user)
                self._overrides[user] = np.union1d(
                    base, np.fromiter(items, dtype=np.int64, count=len(items)))

    def _csr_row(self, user: int) -> np.ndarray:
        return self._indices[self._indptr[user]:self._indptr[user + 1]]

    def _positive_row(self, user: int) -> np.ndarray:
        """Sorted array of the user's excluded items (view, not a copy)."""
        override = self._overrides.get(user)
        return override if override is not None else self._csr_row(user)

    def positives(self, user: int) -> set[int]:
        return set(self._positive_row(user).tolist())

    def can_sample(self, user: int) -> bool:
        """Whether the user has at least one non-interacted item left."""
        return self._positive_row(user).size < self.num_items

    def sample(self, user: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` items the user never interacted with."""
        exclude = self._positive_row(user)
        if exclude.size >= self.num_items:
            raise ValueError(f"user {user} interacted with every item; cannot sample negatives")
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            draw = rng.integers(0, self.num_items, size=max(count - filled, 8))
            if exclude.size:
                # vectorized membership: position of each draw in the
                # sorted positive row; a hit means the row holds that item
                slots = np.searchsorted(exclude, draw)
                hit = ((slots < exclude.size)
                       & (exclude[np.minimum(slots, exclude.size - 1)] == draw))
                accepted = draw[~hit]
            else:
                accepted = draw
            take = min(accepted.size, count - filled)
            out[filled:filled + take] = accepted[:take]
            filled += take
        return out


def sample_pairwise_batch(graph: MultiBehaviorGraph, behavior: str,
                          sampler: NegativeSampler, batch_users: int,
                          per_user: int, rng: np.random.Generator,
                          eligible_users: np.ndarray | None = None) -> PairwiseBatch:
    """Sample a pairwise training batch.

    Parameters
    ----------
    graph:
        The interaction graph providing positive items.
    behavior:
        Target behavior type (positives come from here).
    sampler:
        Negative sampler (shared across steps to reuse its hash sets).
    batch_users:
        Number of distinct seed users per batch.
    per_user:
        ``S`` — positives and negatives sampled per user.
    eligible_users:
        Restrict seeds to these users (defaults to users with ≥1 positive).
    """
    if eligible_users is None:
        degrees = graph.user_degree(behavior)
        eligible_users = np.flatnonzero(degrees > 0)
    if eligible_users.size == 0:
        raise ValueError(f"no user has any {behavior!r} interaction")
    seeds = rng.choice(eligible_users, size=min(batch_users, eligible_users.size), replace=False)

    users: list[int] = []
    pos: list[int] = []
    neg: list[int] = []
    for user in seeds:
        items = graph.user_items(behavior, int(user))
        if items.size == 0 or not sampler.can_sample(int(user)):
            continue
        chosen = rng.choice(items, size=per_user, replace=items.size < per_user)
        negatives = sampler.sample(int(user), per_user, rng)
        users.extend([int(user)] * per_user)
        pos.extend(chosen.tolist())
        neg.extend(negatives.tolist())
    return PairwiseBatch(
        users=np.asarray(users, dtype=np.int64),
        pos_items=np.asarray(pos, dtype=np.int64),
        neg_items=np.asarray(neg, dtype=np.int64),
    )

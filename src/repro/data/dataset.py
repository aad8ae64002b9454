"""The multi-behavior interaction dataset container.

An :class:`InteractionDataset` is the canonical in-memory representation of
the tensor X ∈ {0,1}^{I×J×K} from the paper's preliminaries, stored as
per-behavior interaction lists (COO). It knows which behavior is the
*target* (the one being predicted, "like"/"purchase") and can materialize
the :class:`~repro.graph.MultiBehaviorGraph` used for message passing.
"""

from __future__ import annotations


import numpy as np

from repro.graph.interaction_graph import MultiBehaviorGraph


class InteractionDataset:
    """Container of multi-typed user–item interactions.

    Parameters
    ----------
    name:
        Dataset label (e.g. ``"taobao-like"``).
    num_users, num_items:
        Entity counts.
    behavior_names:
        Ordered behavior types; the order defines behavior ids ``k``.
    target_behavior:
        The behavior type to be predicted (must appear in
        ``behavior_names``).
    interactions:
        Mapping behavior → dict with ``users``, ``items`` (int arrays) and
        optional ``timestamps`` (float array).
    user_features, item_features:
        Optional side-feature matrices of shape (I, F_u) / (J, F_v) — the
        attribute extension the paper's conclusion proposes as future work.
    """

    def __init__(self, name: str, num_users: int, num_items: int,
                 behavior_names: tuple[str, ...] | list[str],
                 target_behavior: str,
                 interactions: dict[str, dict[str, np.ndarray]],
                 user_features: np.ndarray | None = None,
                 item_features: np.ndarray | None = None):
        self.name = name
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.behavior_names = tuple(behavior_names)
        if target_behavior not in self.behavior_names:
            raise ValueError(f"target behavior {target_behavior!r} not in {self.behavior_names}")
        self.target_behavior = target_behavior
        self._interactions: dict[str, dict[str, np.ndarray]] = {}
        for behavior in self.behavior_names:
            record = interactions.get(behavior, {"users": np.array([], dtype=np.int64),
                                                 "items": np.array([], dtype=np.int64)})
            users = np.asarray(record["users"], dtype=np.int64)
            items = np.asarray(record["items"], dtype=np.int64)
            if users.shape != items.shape:
                raise ValueError(f"users/items length mismatch for behavior {behavior!r}")
            timestamps = np.asarray(
                record.get("timestamps", np.zeros(users.size)), dtype=np.float64
            )
            self._interactions[behavior] = {
                "users": users, "items": items, "timestamps": timestamps,
            }
        if user_features is not None:
            user_features = np.asarray(user_features, dtype=np.float64)
            if user_features.shape[0] != self.num_users:
                raise ValueError("user_features rows must equal num_users")
        if item_features is not None:
            item_features = np.asarray(item_features, dtype=np.float64)
            if item_features.shape[0] != self.num_items:
                raise ValueError("item_features rows must equal num_items")
        self.user_features = user_features
        self.item_features = item_features
        self._graph_cache: MultiBehaviorGraph | None = None

    # ------------------------------------------------------------------
    @property
    def num_behaviors(self) -> int:
        return len(self.behavior_names)

    def arrays(self, behavior: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (users, items, timestamps) for one behavior."""
        record = self._interactions[behavior]
        return record["users"], record["items"], record["timestamps"]

    def interaction_count(self, behavior: str | None = None) -> int:
        if behavior is not None:
            return int(self._interactions[behavior]["users"].size)
        return int(sum(rec["users"].size for rec in self._interactions.values()))

    # ------------------------------------------------------------------
    def graph(self) -> MultiBehaviorGraph:
        """Materialize (and cache) the multi-behavior interaction graph."""
        if self._graph_cache is None:
            self._graph_cache = MultiBehaviorGraph(
                self.num_users, self.num_items, self.behavior_names,
                {b: (self._interactions[b]["users"], self._interactions[b]["items"])
                 for b in self.behavior_names},
            )
        return self._graph_cache

    # ------------------------------------------------------------------
    def drop_behaviors(self, behaviors: list[str] | tuple[str, ...]) -> "InteractionDataset":
        """Dataset copy without the given auxiliary behaviors (Table IV)."""
        drop = set(behaviors)
        if self.target_behavior in drop:
            raise ValueError("cannot drop the target behavior")
        keep = tuple(b for b in self.behavior_names if b not in drop)
        return InteractionDataset(
            name=f"{self.name}-wo-{'+'.join(sorted(drop))}",
            num_users=self.num_users,
            num_items=self.num_items,
            behavior_names=keep,
            target_behavior=self.target_behavior,
            interactions={b: self._interactions[b] for b in keep},
            user_features=self.user_features,
            item_features=self.item_features,
        )

    def only_target(self) -> "InteractionDataset":
        """Dataset copy keeping only the target behavior ("only like")."""
        return InteractionDataset(
            name=f"{self.name}-only-{self.target_behavior}",
            num_users=self.num_users,
            num_items=self.num_items,
            behavior_names=(self.target_behavior,),
            target_behavior=self.target_behavior,
            interactions={self.target_behavior: self._interactions[self.target_behavior]},
            user_features=self.user_features,
            item_features=self.item_features,
        )

    def remove_target_rows(self, rows: np.ndarray) -> "InteractionDataset":
        """Copy with specific target-behavior *rows* (by index) removed.

        The exact rows are dropped and nothing else — duplicate
        (user, item) pairs elsewhere in the log survive. This is what the
        leave-one-out split uses, so a repeat purchase never loses its
        training copies along with the held-out one.
        """
        rows = np.asarray(rows, dtype=np.int64)
        record = self._interactions[self.target_behavior]
        n = record["users"].size
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ValueError(f"row index out of range [0, {n})")
        keep_mask = np.ones(n, dtype=bool)
        keep_mask[rows] = False
        return self._with_target_mask(keep_mask)

    def _with_target_mask(self, keep_mask: np.ndarray) -> "InteractionDataset":
        record = self._interactions[self.target_behavior]
        new_interactions = dict(self._interactions)
        new_interactions[self.target_behavior] = {
            "users": record["users"][keep_mask],
            "items": record["items"][keep_mask],
            "timestamps": record["timestamps"][keep_mask],
        }
        return InteractionDataset(
            name=self.name,
            num_users=self.num_users,
            num_items=self.num_items,
            behavior_names=self.behavior_names,
            target_behavior=self.target_behavior,
            interactions=new_interactions,
            user_features=self.user_features,
            item_features=self.item_features,
        )

    # ------------------------------------------------------------------
    def user_target_items(self, user: int) -> np.ndarray:
        """Items the user interacted with under the target behavior."""
        record = self._interactions[self.target_behavior]
        return record["items"][record["users"] == user]

    def describe(self) -> dict[str, object]:
        """Table-I style summary."""
        return {
            "name": self.name,
            "User #": self.num_users,
            "Item #": self.num_items,
            "Interaction #": self.interaction_count(),
            "Interactive Behavior Type": "{" + ", ".join(self.behavior_names) + "}",
            "target": self.target_behavior,
        }

"""Train/test splitting: leave-one-out and temporal protocols.

The paper evaluates with the standard sampled-ranking protocol: for each
user one target-behavior interaction is held out as the test positive
(the most recent one when timestamps exist, else a random one), the rest
remains in the training graph.

Real event logs additionally support a *temporal* protocol — everything
before a cut-off timestamp trains, target interactions at or after it are
evaluated — which avoids the leakage of ranking a user's past against
models trained on their future.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import InteractionDataset


@dataclass
class LeaveOneOutSplit:
    """Result of a leave-one-out split.

    Attributes
    ----------
    train:
        Training dataset (test positives removed from the target behavior).
    test_users, test_items:
        Parallel arrays: user u's held-out positive item.
    """

    train: InteractionDataset
    test_users: np.ndarray
    test_items: np.ndarray

    def __post_init__(self):
        if self.test_users.shape != self.test_items.shape:
            raise ValueError("test_users/test_items must be parallel arrays")

    def __len__(self) -> int:
        return len(self.test_users)


def leave_one_out_split(dataset: InteractionDataset,
                        rng: np.random.Generator | None = None,
                        min_train_interactions: int = 1,
                        use_timestamps: bool = True) -> LeaveOneOutSplit:
    """Hold out one target-behavior interaction per eligible user.

    A user is eligible if they have at least ``min_train_interactions + 1``
    target interactions — so the training graph never loses a user's last
    positive edge.

    Exactly one *row* is removed per held-out interaction: on logs with
    repeat (user, item) events the duplicates stay in training, only the
    single picked row leaves.

    Parameters
    ----------
    dataset:
        The full dataset.
    rng:
        Used when timestamps are absent/disabled to pick a random positive.
    use_timestamps:
        Hold out the most recent interaction when timestamps are available.
        An all-zero timestamp column (the loader's stand-in for "no
        timestamps in this log") falls back to the random pick; a column
        that merely *contains* epoch-0 rows among real times is honored.
    """
    rng = rng or np.random.default_rng(0)
    users, items, timestamps = dataset.arrays(dataset.target_behavior)
    have_timestamps = use_timestamps and np.any(timestamps != 0.0)

    test_users: list[int] = []
    test_rows: list[int] = []
    order = np.argsort(users, kind="stable")
    sorted_users = users[order]
    boundaries = np.flatnonzero(np.diff(sorted_users)) + 1
    groups = np.split(order, boundaries)
    for group in groups:
        if group.size < min_train_interactions + 1:
            continue
        user = int(users[group[0]])
        if have_timestamps:
            pick = group[np.argmax(timestamps[group])]
        else:
            pick = rng.choice(group)
        test_users.append(user)
        test_rows.append(int(pick))

    test_rows_arr = np.asarray(test_rows, dtype=np.int64)
    test_users_arr = np.asarray(test_users, dtype=np.int64)
    test_items_arr = items[test_rows_arr] if test_rows_arr.size else np.array([], dtype=np.int64)
    train = dataset.remove_target_rows(test_rows_arr)
    return LeaveOneOutSplit(train=train, test_users=test_users_arr,
                            test_items=np.asarray(test_items_arr, dtype=np.int64))


@dataclass
class TemporalSplit:
    """Result of a split-by-timestamp.

    Attributes
    ----------
    train:
        Training dataset: every behavior truncated to rows strictly before
        ``split_time``.
    test_users, test_items:
        Parallel arrays of held-out target interactions at/after
        ``split_time`` (a user may appear several times).
    split_time:
        The cut-off timestamp actually used.
    """

    train: InteractionDataset
    test_users: np.ndarray
    test_items: np.ndarray
    split_time: float

    def __post_init__(self):
        if self.test_users.shape != self.test_items.shape:
            raise ValueError("test_users/test_items must be parallel arrays")

    def __len__(self) -> int:
        return len(self.test_users)


def temporal_split(dataset: InteractionDataset,
                   split_time: float | None = None,
                   test_fraction: float = 0.2) -> TemporalSplit:
    """Split every behavior at a timestamp: past trains, future evaluates.

    Parameters
    ----------
    dataset:
        The full dataset; its timestamp columns must carry real times
        (an all-zero column means the log had none — raises).
    split_time:
        Explicit cut-off. Rows with ``t < split_time`` train; *target*
        rows with ``t >= split_time`` become test positives. When omitted
        it is derived from ``test_fraction``.
    test_fraction:
        Fraction of target-behavior rows to hold out (by timestamp
        quantile) when ``split_time`` is not given.

    Users whose training portion keeps no target interaction are dropped
    from the test set (their embeddings would be untrained), and auxiliary
    behaviors are truncated at the same cut-off so no future leaks into
    the training graph.
    """
    users, items, timestamps = dataset.arrays(dataset.target_behavior)
    if not np.any(timestamps != 0.0):
        raise ValueError("temporal_split needs real timestamps; this "
                         "dataset's target behavior has none")
    if split_time is None:
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        split_time = float(np.quantile(timestamps, 1.0 - test_fraction))

    interactions: dict[str, dict[str, np.ndarray]] = {}
    for behavior in dataset.behavior_names:
        b_users, b_items, b_ts = dataset.arrays(behavior)
        mask = b_ts < split_time
        interactions[behavior] = {
            "users": b_users[mask], "items": b_items[mask],
            "timestamps": b_ts[mask],
        }
    train = InteractionDataset(
        name=dataset.name,
        num_users=dataset.num_users,
        num_items=dataset.num_items,
        behavior_names=dataset.behavior_names,
        target_behavior=dataset.target_behavior,
        interactions=interactions,
    )

    test_mask = timestamps >= split_time
    test_users = users[test_mask]
    test_items = items[test_mask]
    # drop test rows of users with no training positives left
    trained = np.unique(interactions[dataset.target_behavior]["users"])
    keep = np.isin(test_users, trained)
    return TemporalSplit(train=train,
                         test_users=test_users[keep],
                         test_items=test_items[keep],
                         split_time=float(split_time))

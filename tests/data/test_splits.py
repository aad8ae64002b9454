"""Tests of the leave-one-out and temporal splits."""

import numpy as np
import pytest

from repro.data import InteractionDataset, leave_one_out_split, temporal_split


def _duplicate_pair_dataset() -> InteractionDataset:
    """User 0 buys item 1 three times; user 1 buys items 2 and 3 once."""
    return InteractionDataset(
        "dup", 2, 4, ("buy",), "buy",
        {"buy": {
            "users": np.array([0, 0, 0, 1, 1]),
            "items": np.array([1, 1, 1, 2, 3]),
            "timestamps": np.array([1.0, 2.0, 3.0, 1.0, 2.0]),
        }},
    )


class TestLeaveOneOut:
    def test_held_out_removed_from_train(self, small_taobao):
        split = leave_one_out_split(small_taobao)
        for user, item in zip(split.test_users, split.test_items):
            assert item not in split.train.user_target_items(int(user))

    def test_one_test_item_per_user(self, small_taobao):
        split = leave_one_out_split(small_taobao)
        assert len(np.unique(split.test_users)) == len(split.test_users)

    def test_train_keeps_at_least_one_positive(self, small_taobao):
        split = leave_one_out_split(small_taobao)
        for user in split.test_users:
            assert split.train.user_target_items(int(user)).size >= 1

    def test_timestamps_pick_most_recent(self, tiny_dataset):
        split = leave_one_out_split(tiny_dataset, use_timestamps=True)
        # user 0 bought item 1 at t=5 (latest) and item 0 at t=3
        idx = list(split.test_users).index(0)
        assert split.test_items[idx] == 1

    def test_random_pick_deterministic_with_seed(self, small_taobao):
        a = leave_one_out_split(small_taobao, rng=np.random.default_rng(3),
                                use_timestamps=False)
        b = leave_one_out_split(small_taobao, rng=np.random.default_rng(3),
                                use_timestamps=False)
        np.testing.assert_array_equal(a.test_items, b.test_items)

    def test_users_with_single_interaction_skipped(self, tiny_dataset):
        split = leave_one_out_split(tiny_dataset)
        # users 1,2,3 have exactly one buy → not eligible
        assert set(split.test_users.tolist()) == {0}

    def test_min_train_interactions(self, small_taobao):
        strict = leave_one_out_split(small_taobao, min_train_interactions=3)
        loose = leave_one_out_split(small_taobao, min_train_interactions=1)
        assert len(strict) <= len(loose)
        for user in strict.test_users:
            assert strict.train.user_target_items(int(user)).size >= 3

    def test_auxiliary_behaviors_untouched(self, small_taobao):
        split = leave_one_out_split(small_taobao)
        for behavior in small_taobao.behavior_names:
            if behavior == small_taobao.target_behavior:
                continue
            assert (split.train.interaction_count(behavior)
                    == small_taobao.interaction_count(behavior))

    def test_parallel_arrays_validated(self, small_taobao):
        from repro.data.splits import LeaveOneOutSplit

        with pytest.raises(ValueError):
            LeaveOneOutSplit(train=small_taobao,
                             test_users=np.array([1, 2]),
                             test_items=np.array([1]))


class TestLeaveOneOutDuplicatePairs:
    """Pinned regression: LOO removes exactly ONE row per test user.

    The old implementation removed every occurrence of the held-out
    (user, item) pair, silently shrinking training sets on logs with
    repeat events.
    """

    def test_exactly_one_row_removed_per_test_user(self):
        dataset = _duplicate_pair_dataset()
        split = leave_one_out_split(dataset)
        assert set(split.test_users.tolist()) == {0, 1}
        # user 0 had 3 copies of (0, 1); exactly one leaves
        assert split.train.interaction_count("buy") == 5 - len(split)
        train_users, train_items, _ = split.train.arrays("buy")
        pair_count = int(((train_users == 0) & (train_items == 1)).sum())
        assert pair_count == 2

    def test_most_recent_duplicate_is_the_one_held(self):
        dataset = _duplicate_pair_dataset()
        split = leave_one_out_split(dataset)
        _, _, train_ts = split.train.arrays("buy")
        # the t=3.0 copy of (0, 1) was held out; t=1.0 and t=2.0 remain
        assert 3.0 not in train_ts[:2].tolist()
        assert {1.0, 2.0} <= set(train_ts.tolist())

    def test_duplicate_only_user_stays_eligible(self):
        """A user whose events are all one repeated pair still splits."""
        dataset = _duplicate_pair_dataset()
        split = leave_one_out_split(dataset)
        idx = list(split.test_users).index(0)
        assert split.test_items[idx] == 1
        assert 1 in split.train.user_target_items(0)


class TestTimestampSemantics:
    def test_all_zero_timestamps_fall_back_to_random(self):
        """An all-zero column means "no timestamps", not "everything at
        the epoch": picks must follow the rng, not argmax (row 0)."""
        dataset = InteractionDataset(
            "z", 1, 6, ("buy",), "buy",
            {"buy": {"users": np.zeros(6, dtype=np.int64),
                     "items": np.arange(6),
                     "timestamps": np.zeros(6)}},
        )
        picks = {int(leave_one_out_split(
            dataset, rng=np.random.default_rng(s)).test_items[0])
            for s in range(12)}
        assert len(picks) > 1

    def test_epoch_zero_rows_among_real_times_are_honored(self):
        """Epoch-0 timestamps mixed with real ones stay meaningful."""
        dataset = InteractionDataset(
            "e", 1, 3, ("buy",), "buy",
            {"buy": {"users": np.array([0, 0, 0]),
                     "items": np.array([0, 1, 2]),
                     "timestamps": np.array([0.0, 9.0, 0.0])}},
        )
        split = leave_one_out_split(dataset)
        assert split.test_items[0] == 1  # most recent real time


class TestTemporalSplit:
    def _timed_dataset(self) -> InteractionDataset:
        return InteractionDataset(
            "t", 3, 5, ("view", "buy"), "buy",
            {
                "view": {"users": np.array([0, 1, 2]),
                         "items": np.array([0, 1, 2]),
                         "timestamps": np.array([1.0, 5.0, 9.0])},
                "buy": {"users": np.array([0, 0, 1, 1, 2]),
                        "items": np.array([0, 1, 1, 2, 3]),
                        "timestamps": np.array([1.0, 8.0, 2.0, 9.0, 10.0])},
            },
        )

    def test_explicit_cutoff(self):
        split = temporal_split(self._timed_dataset(), split_time=8.0)
        assert split.split_time == 8.0
        # buys strictly before 8.0 train: (0,0,t1), (1,1,t2)
        assert split.train.interaction_count("buy") == 2
        # test rows at t >= 8: users 0, 1, 2 — but user 2 has no train buy
        assert set(split.test_users.tolist()) == {0, 1}

    def test_auxiliary_behaviors_truncated_too(self):
        split = temporal_split(self._timed_dataset(), split_time=8.0)
        _, _, view_ts = split.train.arrays("view")
        assert view_ts.size == 2 and view_ts.max() < 8.0

    def test_quantile_fraction(self):
        rng = np.random.default_rng(0)
        n = 200
        dataset = InteractionDataset(
            "q", 20, 40, ("buy",), "buy",
            {"buy": {"users": rng.integers(0, 20, n),
                     "items": rng.integers(0, 40, n),
                     "timestamps": rng.random(n) + 0.01}},
        )
        split = temporal_split(dataset, test_fraction=0.25)
        held = n - split.train.interaction_count("buy")
        assert abs(held - 0.25 * n) <= 0.05 * n

    def test_users_without_train_positives_dropped(self):
        dataset = InteractionDataset(
            "d", 2, 3, ("buy",), "buy",
            {"buy": {"users": np.array([0, 0, 1]),
                     "items": np.array([0, 1, 2]),
                     "timestamps": np.array([1.0, 5.0, 6.0])}},
        )
        split = temporal_split(dataset, split_time=4.0)
        # user 1's only buy is in the future → dropped from test
        assert set(split.test_users.tolist()) == {0}

    def test_timestampless_dataset_raises(self):
        dataset = InteractionDataset(
            "n", 2, 3, ("buy",), "buy",
            {"buy": {"users": np.array([0, 1]),
                     "items": np.array([0, 1]),
                     "timestamps": np.zeros(2)}},
        )
        with pytest.raises(ValueError, match="timestamps"):
            temporal_split(dataset)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="test_fraction"):
            temporal_split(self._timed_dataset(), test_fraction=1.5)

"""Tests of CSV loading through ``ingest_csv`` and the paper's rating→behavior
mapping."""

import numpy as np
import pytest

from repro.data import BadRowError, ingest_csv


def _rating_behaviors(tmp_path, ratings):
    """The behavior ``ingest_csv`` gives each rating, in file order."""
    path = tmp_path / "ratings.csv"
    path.write_text("user,item,rating\n" + "".join(
        f"u{row},i,{rating}\n" for row, rating in enumerate(ratings)))
    data, _ = ingest_csv(path, name="r", target_behavior="like",
                         behavior_names=("dislike", "neutral", "like"),
                         behavior_col=None, rating_col="rating",
                         timestamp_col=None)
    out = [None] * len(ratings)
    for behavior in data.behavior_names:
        for user in data.arrays(behavior)[0]:
            out[user] = behavior  # users are dense in file order
    return out


class TestRatingMapping:
    def test_paper_thresholds(self, tmp_path):
        """§IV-A: r ≤ 2 dislike, 2 < r < 4 neutral, r ≥ 4 like."""
        out = _rating_behaviors(tmp_path, [0.5, 2.0, 2.5, 3.9, 4.0, 5.0])
        assert list(out) == ["dislike", "dislike", "neutral", "neutral", "like", "like"]

    def test_boundaries_exact(self, tmp_path):
        assert _rating_behaviors(tmp_path, [2.0])[0] == "dislike"
        assert _rating_behaviors(tmp_path, [4.0])[0] == "like"


class TestCsvLoader:
    def test_behavior_column_mode(self, tmp_path):
        path = tmp_path / "taobao.csv"
        path.write_text(
            "user,item,behavior,timestamp\n"
            "u1,i1,view,1\n"
            "u1,i2,buy,2\n"
            "u2,i1,buy,3\n"
            "u1,i1,buy,4\n"
        )
        data, _ = ingest_csv(path, name="t", target_behavior="buy")
        assert data.num_users == 2 and data.num_items == 2
        assert data.behavior_names == ("view", "buy")
        assert data.interaction_count("buy") == 3
        # dense reindexing in first-seen order: u1→0, i1→0
        users, items, timestamps = data.arrays("view")
        assert users[0] == 0 and items[0] == 0 and timestamps[0] == 1.0

    def test_rating_column_mode(self, tmp_path):
        path = tmp_path / "ml.csv"
        path.write_text(
            "user,item,rating,timestamp\n"
            "a,x,5,10\n"
            "a,y,1,11\n"
            "b,x,3,12\n"
        )
        data, _ = ingest_csv(path, name="ml", target_behavior="like",
                             behavior_col=None, rating_col="rating")
        assert set(data.behavior_names) == {"like", "dislike", "neutral"}
        assert data.interaction_count("like") == 1
        assert data.interaction_count("dislike") == 1
        assert data.interaction_count("neutral") == 1

    def test_headerless_positional(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("u1,i1,view,1\nu1,i2,buy,2\nu2,i2,buy,5\n")
        data, _ = ingest_csv(path, name="p", target_behavior="buy",
                             has_header=False)
        assert data.interaction_count() == 3

    def test_explicit_behavior_filter(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            "user,item,behavior\nu1,i1,view\nu1,i2,buy\nu2,i1,weird\nu2,i2,buy\n")
        data, _ = ingest_csv(path, name="f", target_behavior="buy",
                             behavior_names=("view", "buy"),
                             timestamp_col=None)
        assert data.behavior_names == ("view", "buy")
        assert data.interaction_count() == 3  # 'weird' row dropped

    def test_mode_exclusivity(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("user,item,behavior\n")
        with pytest.raises(ValueError):
            ingest_csv(path, name="x", target_behavior="buy",
                       behavior_col="behavior", rating_col="rating")
        with pytest.raises(ValueError):
            ingest_csv(path, name="x", target_behavior="buy",
                       behavior_col=None, rating_col=None)

    def test_missing_target_raises(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("user,item,behavior\nu1,i1,view\n")
        with pytest.raises(ValueError):
            ingest_csv(path, name="m", target_behavior="buy")

    def test_roundtrip_into_pipeline(self, tmp_path):
        """A loaded dataset drives the graph/split machinery end to end."""
        rows = ["user,item,behavior,timestamp"]
        rng = np.random.default_rng(0)
        for u in range(12):
            for _ in range(4):
                rows.append(f"u{u},i{rng.integers(0, 15)},view,{rng.random()}")
            for _ in range(3):
                rows.append(f"u{u},i{rng.integers(0, 15)},buy,{rng.random()}")
        path = tmp_path / "rt.csv"
        path.write_text("\n".join(rows) + "\n")
        data, _ = ingest_csv(path, name="rt", target_behavior="buy",
                             behavior_names=("view", "buy"))
        graph = data.graph()
        assert graph.num_behaviors == 2
        from repro.data import leave_one_out_split

        split = leave_one_out_split(data)
        assert len(split) > 0


class TestBadRowPolicy:
    """NaN/garbage ratings must never silently become 'neutral'."""

    def test_nan_rating_raises_with_row_number(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("user,item,rating\na,x,5\nb,y,nan\n")
        with pytest.raises(BadRowError, match="row 2"):
            ingest_csv(path, name="n", target_behavior="like",
                       behavior_col=None, rating_col="rating",
                       timestamp_col=None)

    def test_garbage_rating_raises(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("user,item,rating\na,x,five\n")
        with pytest.raises(BadRowError):
            ingest_csv(path, name="g", target_behavior="like",
                       behavior_col=None, rating_col="rating",
                       timestamp_col=None)

    def test_skip_mode_counts_drops(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "user,item,rating\na,x,5\nb,y,nan\nc,z,inf\na,y,1\n")
        data, report = ingest_csv(
            path, name="s", target_behavior="like", behavior_col=None,
            rating_col="rating", timestamp_col=None, on_bad_rows="skip")
        assert data.interaction_count() == 2
        assert report.rows_dropped_bad == 2
        assert report.rows_read == 4
        assert len(report.bad_row_examples) == 2
        assert "row 2" in str(report.bad_row_examples[0])

    def test_missing_required_column_raises(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("user,item,behavior\nu1,,buy\n")
        with pytest.raises(BadRowError, match="row 1"):
            ingest_csv(path, name="m", target_behavior="buy",
                       timestamp_col=None)

    def test_headerless_short_row_is_a_bad_row(self, tmp_path):
        """Pinned regression: a positional row without an item cell used to
        escape as a bare IndexError."""
        path = tmp_path / "short.csv"
        path.write_text("u1,i1,buy,1\nu2\nu1,i2,buy,2\n")
        with pytest.raises(BadRowError, match="row 1: missing user/item id"):
            ingest_csv(path, name="s", target_behavior="buy",
                       has_header=False)
        data, report = ingest_csv(
            path, name="s", target_behavior="buy", has_header=False,
            on_bad_rows="skip")
        assert data.interaction_count() == 2
        assert report.rows_dropped_bad == 1

    def test_bad_policy_value_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("user,item,behavior\nu1,i1,buy\n")
        with pytest.raises(ValueError, match="on_bad_rows"):
            ingest_csv(path, name="p", target_behavior="buy",
                       timestamp_col=None, on_bad_rows="ignore")


class TestBehaviorFilterIndexing:
    """Pinned regression: indices are built AFTER behavior filtering, so
    rows dropped by the filter can't leave phantom users/items behind."""

    def test_no_phantom_users_or_items(self, tmp_path):
        path = tmp_path / "ph.csv"
        path.write_text(
            "user,item,behavior\n"
            "u1,i1,view\n"
            "ghost_user,ghost_item,weird\n"
            "u1,i2,buy\n"
            "u2,i1,buy\n")
        data, _ = ingest_csv(path, name="ph", target_behavior="buy",
                             behavior_names=("view", "buy"),
                             timestamp_col=None)
        assert data.num_users == 2
        assert data.num_items == 2

    def test_filtered_drop_counts_reported(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text(
            "user,item,behavior\n"
            "u1,i1,view\nu1,i2,buy\nu2,i1,weird\nu3,i3,odd\nu2,i2,buy\n")
        data, report = ingest_csv(
            path, name="fc", target_behavior="buy",
            behavior_names=("view", "buy"), timestamp_col=None)
        assert report.rows_dropped_behavior == 2
        assert report.rows_kept == 3
        assert report.rows_read == 5
        summary = report.as_dict()
        assert summary["rows_dropped_behavior"] == 2

    def test_first_seen_order_respects_filter(self, tmp_path):
        """Dense ids follow first *surviving* appearance, not file order."""
        path = tmp_path / "fo.csv"
        path.write_text(
            "user,item,behavior\n"
            "zed,late,weird\n"   # filtered: must not claim id 0
            "abe,early,buy\n"
            "zed,late,buy\n")
        data, _ = ingest_csv(path, name="fo", target_behavior="buy",
                             behavior_names=("buy",),
                             timestamp_col=None)
        users, items, _ = data.arrays("buy")
        assert users.tolist() == [0, 1]
        assert items.tolist() == [0, 1]

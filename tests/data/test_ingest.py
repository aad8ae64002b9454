"""Tests of the streaming, memory-bounded ingestion pipeline."""

import gc
import hashlib
import json
import re
import zipfile

import numpy as np
import pytest

from repro.data import (
    BadRowError,
    IngestOptions,
    ingest_csv,
    iter_event_chunks,
    load_dataset_npz,
    save_dataset_npz,
    taobao_like,
    temporal_split,
)
from repro.data.ingest import IngestReport
from repro.utils.artifact import ArtifactError, read_meta, write_artifact


def _write_log(path, rows, header="user,item,behavior,timestamp"):
    lines = ([header] if header else []) + rows
    path.write_text("\n".join(lines) + "\n")
    return path


def _random_log_rows(num_rows, num_users=25, num_items=60, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(num_rows):
        behavior = ["click", "click", "cart", "buy"][rng.integers(0, 4)]
        rows.append(f"u{rng.integers(0, num_users)},"
                    f"i{rng.integers(0, num_items)},"
                    f"{behavior},{rng.integers(1, 100_000)}")
    return rows


class TestIterEventChunks:
    def test_chunk_sizes_bounded(self, tmp_path):
        path = _write_log(tmp_path / "log.csv", _random_log_rows(257))
        options = IngestOptions(chunk_rows=50)
        report = IngestReport()
        chunks = list(iter_event_chunks(path, options, report))
        assert [len(c) for c in chunks] == [50] * 5 + [7]
        assert report.chunks == 6
        assert report.rows_read == 257

    def test_rating_mode_maps_behaviors(self, tmp_path):
        path = _write_log(tmp_path / "ml.csv",
                          ["a,x,5,1", "a,y,1,2", "b,x,3,3"],
                          header="user,item,rating,timestamp")
        options = IngestOptions(behavior_col=None, rating_col="rating",
                                chunk_rows=2)
        (chunk1, chunk2) = list(iter_event_chunks(path, options))
        behaviors = [row[2] for row in [*chunk1, *chunk2]]
        assert behaviors == ["like", "dislike", "neutral"]

    def test_bad_rows_raise_by_default(self, tmp_path):
        path = _write_log(tmp_path / "bad.csv",
                          ["a,x,5,1", "a,y,nan,2"],
                          header="user,item,rating,timestamp")
        options = IngestOptions(behavior_col=None, rating_col="rating")
        with pytest.raises(BadRowError, match="row 2"):
            list(iter_event_chunks(path, options))

    def test_bad_rows_skip_counts(self, tmp_path):
        path = _write_log(tmp_path / "bad.csv",
                          ["a,x,5,1", "a,y,nan,2", "b,x,oops,3", "b,y,4,4"],
                          header="user,item,rating,timestamp")
        options = IngestOptions(behavior_col=None, rating_col="rating",
                                on_bad_rows="skip")
        report = IngestReport()
        rows = [row for chunk in iter_event_chunks(path, options, report)
                for row in chunk]
        assert len(rows) == 2
        assert report.rows_dropped_bad == 2
        assert len(report.bad_row_examples) == 2


class TestIngestCsv:
    def test_matches_in_memory_loader(self, tmp_path):
        """Any chunking == the whole file as one chunk (the default)."""
        path = _write_log(tmp_path / "log.csv", _random_log_rows(500))
        reference, _ = ingest_csv(path, name="ref", target_behavior="buy")
        for chunk_rows in (7, 64, 10_000):
            dataset, report = ingest_csv(path, name="ref",
                                         target_behavior="buy",
                                         chunk_rows=chunk_rows)
            assert dataset.num_users == reference.num_users
            assert dataset.num_items == reference.num_items
            assert dataset.behavior_names == reference.behavior_names
            for behavior in reference.behavior_names:
                for got, want in zip(dataset.arrays(behavior),
                                     reference.arrays(behavior)):
                    np.testing.assert_array_equal(got, want)
            assert report.rows_kept == 500

    def test_behavior_filter_no_phantom_ids(self, tmp_path):
        path = _write_log(tmp_path / "log.csv", [
            "u1,i1,click,1",
            "u1,i2,buy,2",
            "ghost_user,ghost_item,weird,3",
            "u2,i2,buy,4",
        ])
        dataset, report = ingest_csv(path, name="f", target_behavior="buy",
                                     behavior_names=("click", "buy"))
        assert dataset.num_users == 2
        assert dataset.num_items == 2
        assert report.rows_dropped_behavior == 1
        assert report.rows_kept == 3

    def test_missing_target_raises(self, tmp_path):
        path = _write_log(tmp_path / "log.csv", ["u1,i1,click,1"])
        with pytest.raises(ValueError, match="target behavior"):
            ingest_csv(path, name="x", target_behavior="buy")

    def test_headerless_positional(self, tmp_path):
        path = _write_log(tmp_path / "log.csv",
                          ["u1,i1,buy,1", "u1,i2,buy,2", "u2,i1,click,3"],
                          header=None)
        dataset, _ = ingest_csv(path, name="p", target_behavior="buy",
                                has_header=False)
        assert dataset.interaction_count() == 3

    def test_timestampless_log_flagged(self, tmp_path):
        path = _write_log(tmp_path / "log.csv",
                          ["u1,i1,buy", "u1,i2,buy", "u2,i1,buy"],
                          header="user,item,behavior")
        dataset, report = ingest_csv(path, name="nt", target_behavior="buy")
        assert not report.has_timestamps
        with pytest.raises(ValueError, match="timestamps"):
            temporal_split(dataset)

    def test_option_conflict_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ingest_csv(tmp_path / "log.csv", name="x", target_behavior="buy",
                       options=IngestOptions(), chunk_rows=5)
        with pytest.raises(ValueError):
            IngestOptions(behavior_col=None, rating_col=None)
        with pytest.raises(ValueError):
            IngestOptions(on_bad_rows="ignore")
        with pytest.raises(ValueError):
            IngestOptions(chunk_rows=0)


class TestCollectorPause:
    """A block is read and parsed with the cyclic collector paused, and
    nothing else is: the consumer, the encode step and every way out of
    the generator see the collector as the caller left it."""

    def _log(self, tmp_path, num_rows=257):
        return _write_log(tmp_path / "log.csv", _random_log_rows(num_rows))

    def test_collector_on_after_ingest(self, tmp_path):
        ingest_csv(self._log(tmp_path), name="g", target_behavior="buy",
                   chunk_rows=50)
        assert gc.isenabled()

    def test_collector_on_after_a_bad_row_mid_block(self, tmp_path):
        rows = _random_log_rows(100)
        rows[70] = "u1,i1,buy,oops"  # file row 71, in the second block
        path = _write_log(tmp_path / "bad.csv", rows)
        with pytest.raises(BadRowError, match="row 71"):
            ingest_csv(path, name="g", target_behavior="buy", chunk_rows=64)
        assert gc.isenabled()

    def test_collector_on_after_the_consumer_closes(self, tmp_path):
        chunks = iter_event_chunks(self._log(tmp_path),
                                   IngestOptions(chunk_rows=50))
        assert len(next(chunks)) == 50
        chunks.close()
        assert gc.isenabled()

    def test_consumer_runs_with_the_collector_on(self, tmp_path):
        seen = [gc.isenabled() for _ in iter_event_chunks(
            self._log(tmp_path), IngestOptions(chunk_rows=50))]
        assert seen == [True] * 6

    def test_a_disabled_collector_stays_disabled(self, tmp_path):
        path = self._log(tmp_path)
        gc.disable()
        try:
            seen = [gc.isenabled() for _ in iter_event_chunks(
                path, IngestOptions(chunk_rows=50))]
            ingest_csv(path, name="g", target_behavior="buy", chunk_rows=50)
            after = gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False] * 6
        assert not after

    def test_a_block_is_dropped_before_its_chunk_is_yielded(self, tmp_path):
        """The row lists go inside the pause, so while the consumer holds a
        chunk the rows of that block (and of the one before) are gone:
        traced memory is under half of the peak its parse reached (0.29-0.40
        here; 0.53-0.95 when the block lived until the next read)."""
        import tracemalloc

        path = _write_log(tmp_path / "log.csv",
                          _random_log_rows(20_000, seed=3))
        shares = []
        tracemalloc.start()
        try:
            for _ in iter_event_chunks(path, IngestOptions(chunk_rows=5_000)):
                current, peak = tracemalloc.get_traced_memory()
                shares.append(current / peak)
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert len(shares) == 4
        assert max(shares) < 0.5, shares

    def test_at_most_one_collection_per_block(self, tmp_path):
        """Each block's 5 000 row lists are freed inside the pause, so they
        never count towards a collection (before the pause this log set
        off 26 generation-0 and 2 generation-1 collections)."""
        path = _write_log(tmp_path / "log.csv",
                          _random_log_rows(20_000, seed=3))
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            _, report = ingest_csv(path, name="g", target_behavior="buy",
                                   chunk_rows=5_000)
        finally:
            gc.callbacks.remove(record)
        assert report.chunks == 4
        assert len(generations) <= report.chunks, generations


class TestHeaderAndEncoding:
    @pytest.mark.parametrize("on_bad_rows", ["raise", "skip"])
    @pytest.mark.parametrize("header,column", [
        ("user,itm,behavior,timestamp", "item"),
        ("uid,item,behavior,timestamp", "user"),
        ("user,item,rating,timestamp", "behavior"),
    ])
    def test_missing_required_column_names_it(self, tmp_path, header, column,
                                              on_bad_rows):
        """Not one BadRowError per row — and under "skip" not an empty
        dataset with "target behavior absent" either."""
        path = _write_log(tmp_path / "log.csv", ["u1,i1,buy,1"], header=header)
        with pytest.raises(ValueError, match=f"column '{column}'") as raised:
            ingest_csv(path, name="x", target_behavior="buy",
                       on_bad_rows=on_bad_rows)
        assert not isinstance(raised.value, BadRowError)
        assert str(header.split(",")) in str(raised.value)

    def test_missing_rating_column_and_empty_file(self, tmp_path):
        path = _write_log(tmp_path / "log.csv", ["u1,i1,buy,1"])
        with pytest.raises(ValueError, match="column 'stars'"):
            ingest_csv(path, name="x", target_behavior="like",
                       behavior_col=None, rating_col="stars")
        (tmp_path / "empty.csv").write_text("")
        with pytest.raises(ValueError, match="column 'user'"):
            ingest_csv(tmp_path / "empty.csv", name="x", target_behavior="buy")

    def test_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("\n\nuser,item,behavior,timestamp\nu1,i1,buy,nan\n")
        with pytest.raises(BadRowError, match="row 3: non-finite timestamp"):
            ingest_csv(path, name="x", target_behavior="buy")

    def test_line_endings_and_bom_do_not_change_the_dataset(self, tmp_path):
        rows = _random_log_rows(120)
        rows[5] = 'u1,"i 5, the ""big"" one",buy,77'
        lines = ["user,item,behavior,timestamp"] + rows
        plain = tmp_path / "lf.csv"
        plain.write_bytes("".join(line + "\n" for line in lines).encode())
        variants = {
            "crlf": "".join(line + "\r\n" for line in lines).encode(),
            "mixed": "".join(line + ("\r\n", "\n", "\r")[k % 3]
                             for k, line in enumerate(lines)).encode(),
            "bom": b"\xef\xbb\xbf" + plain.read_bytes(),
            "bom-crlf-unterminated":
                b"\xef\xbb\xbf" + "\r\n".join(lines).encode(),
        }
        dataset, report = ingest_csv(plain, name="d", target_behavior="buy")
        want = save_dataset_npz(dataset, tmp_path / "lf.npz").read_bytes()
        for label, payload in variants.items():
            path = tmp_path / f"{label}.csv"
            path.write_bytes(payload)
            got, got_report = ingest_csv(path, name="d", target_behavior="buy",
                                         chunk_rows=50)
            assert got_report.rows_read == report.rows_read == 120, label
            assert save_dataset_npz(
                got, tmp_path / f"{label}.npz").read_bytes() == want, label


def _fixture_log(path, rating_mode):
    """A log written by arithmetic alone (no generator whose stream could
    change): 900 events, a malformed row every 45th."""
    behaviors = ("click", "click", "fav", "cart", "click", "buy")
    lines = ["user,item,rating,timestamp" if rating_mode
             else "user,item,behavior,timestamp"]
    for k in range(900):
        value = (f"{(k * 31 % 9 + 2) / 2:g}" if rating_mode
                 else behaviors[k * 5 % 6 if k % 11 else 3])
        item = f"i{(k * k + 3 * k) % 211}"
        stamp = str(1_600_000_000 + k * 104_729 % 86_400)
        if k % 45 == 44:
            if k % 2:
                item = ""
            elif rating_mode:
                value = "?"
            else:
                stamp = "soon"
        lines.append(f"u{k * 7919 % 61},{item},{value},{stamp}")
    return _write_log(path, lines[1:], header=lines[0])


class TestArtifactPinnedAcrossParsers:
    """sha256 of the artifact for a fixed log: first-seen id order and the
    row order inside each behavior — what a seeded training run depends
    on — are exactly what the row-by-row parser (the commit before the
    columnar one) produced. Re-pinned once when the file gained its
    ``array_sha256`` manifest (repro.utils.artifact); the arrays and header
    behind the old pins (c4c10a8e…, a95f338d…) were checked equal to the
    ones behind these."""

    @pytest.mark.parametrize("rating_mode,target,sha256", [
        (False, "buy", "a88b6493a8ccfc129f3af2261a49e3601f416a614803be40a35bbe9a1f330ab1"),
        (True, "like", "952b225b9a8955d8af2fd2446f01da367279a0a6976e6f100609bb2dae756bc7"),
    ])
    def test_artifact_sha256(self, tmp_path, rating_mode, target, sha256):
        path = _fixture_log(tmp_path / "fixture.csv", rating_mode)
        options = IngestOptions(on_bad_rows="skip", chunk_rows=128)
        if rating_mode:
            options.behavior_col, options.rating_col = None, "rating"
        dataset, report = ingest_csv(path, name="fixture",
                                     target_behavior=target, options=options)
        assert report.rows_dropped_bad == 20
        artifact = save_dataset_npz(dataset, tmp_path / "fixture.npz",
                                    has_timestamps=report.has_timestamps)
        assert hashlib.sha256(artifact.read_bytes()).hexdigest() == sha256


class TestDatasetArtifact:
    def test_roundtrip(self, tmp_path):
        dataset = taobao_like(num_users=20, num_items=35, seed=3)
        path = save_dataset_npz(dataset, tmp_path / "d.npz")
        loaded, meta = load_dataset_npz(path)
        assert loaded.name == dataset.name
        assert loaded.num_users == dataset.num_users
        assert loaded.num_items == dataset.num_items
        assert loaded.behavior_names == dataset.behavior_names
        assert loaded.target_behavior == dataset.target_behavior
        assert meta["has_timestamps"] is True
        for behavior in dataset.behavior_names:
            for got, want in zip(loaded.arrays(behavior),
                                 dataset.arrays(behavior)):
                np.testing.assert_array_equal(got, want)

    def test_bytes_deterministic(self, tmp_path):
        dataset = taobao_like(num_users=15, num_items=25, seed=5)
        a = save_dataset_npz(dataset, tmp_path / "a.npz")
        b = save_dataset_npz(dataset, tmp_path / "b.npz")
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _columns(dataset):
        return {f"b{index}_{label}": column
                for index, behavior in enumerate(dataset.behavior_names)
                for label, column in zip(("users", "items", "timestamps"),
                                         dataset.arrays(behavior))}

    def test_header_smaller_than_the_ids_is_refused(self, tmp_path):
        """The header is outside the manifest: shrink ``num_items`` and
        re-zip. Used to load, and fail later inside graph construction."""
        dataset = taobao_like(num_users=20, num_items=35, seed=3)
        path = save_dataset_npz(dataset, tmp_path / "d.npz")
        with zipfile.ZipFile(path) as archive:
            members = {n: archive.read(n) for n in archive.namelist()}
        meta = json.loads(members["meta.json"])
        meta["num_items"] = 5
        members["meta.json"] = json.dumps(meta).encode()
        with zipfile.ZipFile(path, "w") as archive:
            for name, payload in members.items():
                archive.writestr(name, payload)
        items = dataset.arrays(dataset.behavior_names[0])[1]
        first = int(np.flatnonzero(items >= 5)[0])
        with pytest.raises(ArtifactError, match=re.escape(
                f"d.npz: behavior {dataset.behavior_names[0]!r} "
                f"items[{first}] = {items[first]} is outside [0, 5)")):
            load_dataset_npz(path)

    @pytest.mark.parametrize("label,edit,message", [
        ("users", lambda c: np.where(np.arange(c.size) == 2, -1, c),
         r"users\[2\] = -1 is outside \[0, 20\)"),
        ("timestamps", lambda c: c[:-1], "equally long"),
        ("items", lambda c: c.astype(np.float64), "integer ids.*float64"),
    ])
    def test_arrays_that_contradict_the_header_are_refused(
            self, tmp_path, label, edit, message):
        dataset = taobao_like(num_users=20, num_items=35, seed=3)
        good = save_dataset_npz(dataset, tmp_path / "good.npz")
        columns = self._columns(dataset)
        columns[f"b1_{label}"] = edit(columns[f"b1_{label}"])
        bad = write_artifact(tmp_path / "bad.npz", columns, read_meta(good))
        with pytest.raises(ArtifactError,
                           match=f"bad.npz: behavior 'favorite'.*{message}"):
            load_dataset_npz(bad)

    def test_rejects_foreign_zip(self, tmp_path):
        path = tmp_path / "not_dataset.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("whatever.npy", b"junk")
        with pytest.raises(ValueError, match="artifact"):
            load_dataset_npz(path)

    def test_rejects_bad_format_version(self, tmp_path):
        path = tmp_path / "old.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("meta.json", json.dumps({"format": "v0"}))
        with pytest.raises(ValueError, match="format"):
            load_dataset_npz(path)


class TestIngestTransientMemory:
    def test_transient_memory_bounded_by_chunk(self, tmp_path):
        """10x more rows must not mean 10x more transient memory.

        Transient = tracemalloc peak minus what remains allocated at the
        end (the dataset itself): the chunked one-pass design keeps it
        proportional to the chunk and the vocabularies, never the log.
        The claim is vacuous unless the big log spans >= 10 chunks and
        both logs see the whole entity universe (so the vocabularies cost
        the same for either), which is asserted first.
        """
        import tracemalloc

        chunk_rows, num_users, num_items = 2_000, 100, 200
        small = _write_log(tmp_path / "small.csv", _random_log_rows(
            chunk_rows, num_users, num_items, seed=1))
        big = _write_log(tmp_path / "big.csv", _random_log_rows(
            10 * chunk_rows, num_users, num_items, seed=2))

        def transient(path):
            tracemalloc.start()
            try:
                dataset, report = ingest_csv(
                    path, name="m", target_behavior="buy",
                    chunk_rows=chunk_rows)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (dataset.num_users, dataset.num_items) == (num_users,
                                                              num_items)
            return peak - current, report

        small_transient, small_report = transient(small)
        big_transient, big_report = transient(big)
        assert small_report.chunks == 1
        assert big_report.rows_read >= 10 * chunk_rows
        assert big_transient < small_transient * 3, (
            f"transient memory grew with the log: {small_transient} -> "
            f"{big_transient} bytes for 10x the rows")

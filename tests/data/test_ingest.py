"""Tests of the streaming, memory-bounded ingestion pipeline."""

import gc
import hashlib
import json
import multiprocessing
import os
import re
import time
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
from repro.data import ingest
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


CHUNKS = (1, 7, 50, 5_000)


def _ingest_with(monkeypatch, workers, path, target, **kwargs):
    """``ingest_csv`` with the block parse in ``workers`` processes (1: in
    this one); an exception is returned, not raised."""
    monkeypatch.setattr(ingest, "_worker_count", lambda: workers)
    try:
        return ingest_csv(path, name="d", target_behavior=target, **kwargs)
    except Exception as exc:  # compared across the two paths
        return exc


def _first_seen(path, behavior_names=None, **kwargs):
    """Per behavior, the rows of ``iter_event_chunks`` in file order, ids
    numbered by first appearance among the rows the filter keeps."""
    users, items = {}, {}
    columns = {}
    for chunk in iter_event_chunks(path, IngestOptions(**kwargs)):
        for user, item, behavior, stamp in chunk:
            if behavior_names and behavior not in behavior_names:
                continue
            rows = columns.setdefault(behavior, ([], [], []))
            rows[0].append(users.setdefault(user, len(users)))
            rows[1].append(items.setdefault(item, len(items)))
            rows[2].append(stamp)
    return columns, len(users), len(items)


def _assert_paths_agree(monkeypatch, path, target, behavior_names=None,
                        **kwargs):
    """The pooled parse (three workers) and the in-process one give the
    same dataset, report and id order, or raise the same exception."""
    alone = _ingest_with(monkeypatch, 1, path, target,
                         behavior_names=behavior_names, **kwargs)
    pooled = _ingest_with(monkeypatch, 3, path, target,
                          behavior_names=behavior_names, **kwargs)
    if isinstance(alone, Exception):
        assert type(pooled) is type(alone), pooled
        assert str(pooled) == str(alone)
        return alone
    (dataset, report), (want, want_report) = pooled, alone
    assert report == want_report
    assert dataset.behavior_names == want.behavior_names
    assert (dataset.num_users, dataset.num_items) == (want.num_users,
                                                      want.num_items)
    columns, num_users, num_items = _first_seen(path, behavior_names,
                                                **kwargs)
    assert (dataset.num_users, dataset.num_items) == (num_users, num_items)
    for behavior in want.behavior_names:
        for got, expected, oracle in zip(dataset.arrays(behavior),
                                         want.arrays(behavior),
                                         columns.get(behavior, ([],) * 3)):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(got, oracle)
    return alone


_REAL_ENCODE = ingest._encode_block


def _slow_first_block(text, rows, first, where, options):
    """The block function, with the file's first block finishing last."""
    if first == 1:
        time.sleep(0.3)
    return _REAL_ENCODE(text, rows, first, where, options)


class TestParallelEqualsInProcess:
    """Blocks parsed in worker processes and merged in file order give
    exactly what parsing them here gives."""

    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_plain_and_quoted_delimiters(self, tmp_path, monkeypatch,
                                         chunk_rows):
        rows = _random_log_rows(max(3 * chunk_rows + 4, 120), seed=5)
        for k in range(3, len(rows), 9):
            user, _, behavior, stamp = rows[k].split(",")
            rows[k] = f'{user},"i{k % 13}, the ""big"" one",{behavior},{stamp}'
        path = _write_log(tmp_path / "log.csv", rows)
        _assert_paths_agree(monkeypatch, path, "buy", chunk_rows=chunk_rows)
        _assert_paths_agree(monkeypatch, path, "buy", chunk_rows=chunk_rows,
                            behavior_names=("cart", "buy"))

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_quoted_line_end_at_every_offset_around_a_boundary(
            self, tmp_path, monkeypatch, chunk_rows, line_end):
        """A record whose quoted item holds a line end sits just before,
        on and just after the first block boundary (a block is the header
        plus ``chunk_rows`` records, so data row ``chunk_rows`` opens the
        second); the whole file uses ``line_end`` too."""
        base = _random_log_rows(2 * chunk_rows + 6, seed=6)
        for offset in range(-2, 3):
            rows = list(base)
            k = max(chunk_rows + offset, 0)
            user, _, behavior, stamp = rows[k].split(",")
            rows[k] = (f'{user},"i{offset}{line_end}a, b{line_end}",'
                       f'{behavior},{stamp}')
            path = tmp_path / f"log{offset}.csv"
            path.write_bytes("".join(
                line + line_end for line in
                ["user,item,behavior,timestamp"] + rows).encode())
            dataset, report = _assert_paths_agree(monkeypatch, path, "buy",
                                                  chunk_rows=chunk_rows)
            assert report.rows_read == len(rows)

    @pytest.mark.parametrize("ending", ["lf", "crlf", "cr", "mixed"])
    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_line_ends_bom_and_blank_lines(self, tmp_path, monkeypatch,
                                           chunk_rows, ending):
        """Blank lines before the header and among the rows, and a run of
        blank lines long enough to fill a whole block."""
        rows = _random_log_rows(max(3 * chunk_rows, 120), seed=7)
        rows[len(rows) // 3:len(rows) // 3] = [""] * (2 * chunk_rows)
        for k in range(5, len(rows), 11):
            rows.insert(k, "")
        lines = ["", "", "user,item,behavior,timestamp"] + rows
        ends = {"lf": ["\n"], "crlf": ["\r\n"], "cr": ["\r"],
                "mixed": ["\r\n", "\n", "\r"]}[ending]
        payload = "".join(line + ends[k % len(ends)]
                          for k, line in enumerate(lines)).encode()
        for label, data in (("plain", payload),
                            ("bom", b"\xef\xbb\xbf" + payload)):
            path = tmp_path / f"{label}.csv"
            path.write_bytes(data)
            _, report = _assert_paths_agree(monkeypatch, path, "buy",
                                            chunk_rows=chunk_rows)
            assert report.rows_read == len(rows) - rows.count("")

    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_rating_mode_skipping_bad_rows(self, tmp_path, monkeypatch,
                                           chunk_rows):
        path = _fixture_log(tmp_path / "ratings.csv", rating_mode=True)
        if chunk_rows == 5_000:  # the fixture is 900 rows: make it 3 blocks
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines + lines[1:] * 14) + "\n")
        _, report = _assert_paths_agree(
            monkeypatch, path, "like", chunk_rows=chunk_rows,
            behavior_col=None, rating_col="rating", on_bad_rows="skip")
        assert report.rows_dropped_bad >= 20
        assert len(report.bad_row_examples) == 5

    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_skip_keeps_the_first_five_examples_in_file_order(
            self, tmp_path, monkeypatch, chunk_rows):
        rows = _random_log_rows(max(3 * chunk_rows, 120), seed=8)
        for k in range(len(rows) - 1, 0, -(len(rows) // 9)):
            rows[k] = f"u{k},i{k},buy,soon"
        path = _write_log(tmp_path / "log.csv", rows)
        _, report = _assert_paths_agree(monkeypatch, path, "buy",
                                        chunk_rows=chunk_rows,
                                        on_bad_rows="skip")
        numbers = [number for number, _ in report.bad_row_examples]
        assert len(numbers) == 5 and numbers == sorted(numbers)

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_raise_names_the_first_bad_row_when_a_later_block_ends_first(
            self, tmp_path, monkeypatch, chunk_rows, quoted):
        """The first block's worker is held back 0.3 s, so a later block
        with a bad row is done first: in a worker, or (``quoted``) here,
        where a block holding a quote character is parsed."""
        rows = _random_log_rows(max(3 * chunk_rows, 120), seed=9)
        rows[0] = "u1,i1,buy,later"
        rows[chunk_rows + 1] = ('u1,"i1",buy,sooner' if quoted
                                else "u1,i1,buy,sooner")
        path = _write_log(tmp_path / "log.csv", rows)
        monkeypatch.setattr(ingest, "_encode_block", _slow_first_block)
        raised = _assert_paths_agree(monkeypatch, path, "buy",
                                     chunk_rows=chunk_rows)
        assert isinstance(raised, BadRowError)
        assert str(raised) == "row 1: unparseable timestamp 'later'"

    @pytest.mark.parametrize("bad_row_first", [True, False])
    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    def test_undecodable_bytes_raise_in_file_order(
            self, tmp_path, monkeypatch, chunk_rows, bad_row_first):
        """A byte that is not UTF-8 is the same ``UnicodeDecodeError`` on
        both paths, raised after a bad row before it and before a bad row
        after it. Rows are padded to 200 bytes, so each is > 8 KiB (the
        decoder's read size) from the other and from the header: the
        error ends reading after a block, while the bad row's block is
        still in flight at 50 and 5 000 rows a block."""
        rows = [row + "," + "x" * 180
                for row in _random_log_rows(max(3 * chunk_rows, 400), seed=10)]
        bad, undecodable = ((10, max(2 * chunk_rows + 20, 100))
                            if bad_row_first
                            else (len(rows) - 10, len(rows) // 2))
        rows[bad] = "u1,i1,buy,oops"
        lines = ["user,item,behavior,timestamp,note"] + rows
        payload = [line.encode() for line in lines]
        payload[undecodable + 1] = b"u\xff," + payload[undecodable + 1]
        path = tmp_path / "log.csv"
        path.write_bytes(b"\n".join(payload) + b"\n")
        raised = _assert_paths_agree(monkeypatch, path, "buy",
                                     chunk_rows=chunk_rows)
        assert isinstance(raised, BadRowError if bad_row_first
                          else UnicodeDecodeError), raised
        if bad_row_first:
            assert str(raised).startswith(f"row {bad + 1}:")
        else:
            chunks = iter_event_chunks(path, IngestOptions(
                chunk_rows=chunk_rows))
            with pytest.raises(UnicodeDecodeError) as streamed:
                sum(len(chunk) for chunk in chunks)
            assert str(streamed.value) == str(raised)


class TestQuotedBlocksTokenizedOnce:
    """Where a block holds a quote character the reader tokenizes it to
    count its records, and the block is parsed from those rows in this
    process, pool or not: no record is tokenized twice."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_record_is_tokenized_once(self, tmp_path, monkeypatch,
                                           workers):
        rows = [f'u{k % 9},"i{k % 13}, the ""big"" one",buy,{k}'
                for k in range(120)]
        path = _write_log(tmp_path / "log.csv", rows)
        real, tokenized = ingest.csv.reader, []

        def reader(*args, **kwargs):
            for row in real(*args, **kwargs):
                tokenized.append(row)
                yield row

        submitted = []

        class Pool(ingest.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(ingest.csv, "reader", reader)
        monkeypatch.setattr(ingest, "ProcessPoolExecutor", Pool)
        _, report = _ingest_with(monkeypatch, workers, path, "buy",
                                 chunk_rows=50)
        assert report.chunks == 3
        assert len(tokenized) == 1 + len(rows)  # the header, then each row
        assert submitted == []  # every block holds a quote
        tokenized.clear()
        chunks = list(iter_event_chunks(path, IngestOptions(chunk_rows=50)))
        assert [len(chunk) for chunk in chunks] == [50, 50, 20]
        assert len(tokenized) == 1 + len(rows)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestWorkerLifecycle:
    """The pool lives inside one ``ingest_csv`` call, however it ends: no
    worker outlives it, and the collector is as the caller left it."""

    @pytest.fixture
    def workers_seen(self, monkeypatch):
        """Two workers; the pids alive each time a block is merged."""
        monkeypatch.setattr(ingest, "_worker_count", lambda: 2)
        seen = []
        real = ingest._spill_chunk

        def spill(*args):
            seen.append({p.pid for p in multiprocessing.active_children()})
            return real(*args)

        monkeypatch.setattr(ingest, "_spill_chunk", spill)
        return seen

    @staticmethod
    def _ingest(path, collector_on, **kwargs):
        (gc.enable if collector_on else gc.disable)()
        try:
            try:
                ingest_csv(path, name="g", chunk_rows=50, **kwargs)
            except Exception as exc:
                return exc, gc.isenabled()
            return None, gc.isenabled()
        finally:
            gc.enable()

    def _assert_no_worker_left(self, seen):
        pids = set().union(*seen)
        assert len(pids) == 2, seen
        assert multiprocessing.active_children() == []
        assert not any(_alive(pid) for pid in pids)

    @pytest.mark.parametrize("collector_on", [True, False])
    @pytest.mark.parametrize("case", [
        "normal", "bad row", "missing target", "merge fails"])
    def test_no_worker_outlives_the_call(self, tmp_path, monkeypatch,
                                         workers_seen, case, collector_on):
        rows = _random_log_rows(400, seed=11)
        target = "buy"
        if case == "bad row":
            rows[170] = "u1,i1,buy,oops"  # file row 171, the fourth block
        elif case == "missing target":
            target = "refund"
        elif case == "merge fails":
            real = ingest._spill_chunk

            def spill(*args):
                if len(workers_seen) == 2:
                    raise RuntimeError("merge failed")
                return real(*args)

            monkeypatch.setattr(ingest, "_spill_chunk", spill)
        raised, collector = self._ingest(
            _write_log(tmp_path / "log.csv", rows), collector_on,
            target_behavior=target)
        want = {"normal": type(None), "bad row": BadRowError,
                "missing target": ValueError, "merge fails": RuntimeError}
        assert isinstance(raised, want[case]), raised
        assert collector is collector_on
        self._assert_no_worker_left(workers_seen)

    @pytest.mark.parametrize("bom", [False, True])
    @pytest.mark.parametrize("num_blocks", [1, 2, 3])
    def test_no_more_workers_than_blocks(self, tmp_path, monkeypatch,
                                         workers_seen, num_blocks, bom):
        """Four CPUs, but the pool is sized by the blocks the log holds
        (its size over its first block's): a one-block log forks none."""
        monkeypatch.setattr(ingest, "_worker_count", lambda: 4)
        rows = [f"u{k % 7},i{k % 11:02d},buy,{100_000 + k}"
                for k in range(50 * num_blocks)]
        path = tmp_path / "log.csv"
        path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + "".join(
            line + "\n" for line in
            ["user,item,behavior,timestamp"] + rows).encode())
        _, report = ingest_csv(path, name="g", target_behavior="buy",
                               chunk_rows=50)
        assert report.chunks == num_blocks
        pids = set().union(*workers_seen)
        assert len(pids) == (num_blocks if num_blocks > 1 else 0)
        assert multiprocessing.active_children() == []

    def test_iter_event_chunks_starts_no_process(self, tmp_path,
                                                 workers_seen):
        path = _write_log(tmp_path / "log.csv", _random_log_rows(400))
        chunks = iter_event_chunks(path, IngestOptions(chunk_rows=50))
        next(chunks)
        assert multiprocessing.active_children() == []
        chunks.close()
        assert multiprocessing.active_children() == []


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

"""Streaming, memory-bounded dataset ingestion from event logs.

Every CSV event log reaches an :class:`~repro.data.dataset.InteractionDataset`
(and from it the stacked-CSR :class:`~repro.graph.MultiBehaviorGraph`)
through this module, in **one pass** over the file:

* ``csv.reader`` is the only tokenizer (quoting, embedded delimiters and
  line endings mean what they mean to it); the log is read in blocks of
  ``chunk_rows`` records and each block is handled **column-wise** — ids
  stripped once per distinct cell, ratings and timestamps through
  ``map(float, …)``, the paper's rating partition as one ``np.where``;
* a block is read and parsed with the cyclic garbage collector paused:
  its row lists hold only strings, so they cannot form a cycle, and are
  freed by reference count before the pause ends (else the collections
  they set off took a quarter of the ingest time);
* a column check only *flags* a malformed row; a scalar check then names
  the flagged rows' first defect, so the bad-row policy (``raise`` with
  the row number, or ``skip`` and count) costs nothing on clean rows;
* dense user/item ids are assigned online, in order of first appearance
  among the rows that survive the bad-row policy and the behavior filter
  (no phantom ids), and the encoded rows are appended to a **spill file**
  until the per-behavior totals are known, then read back straight into
  the final arrays;
* peak *transient* memory is therefore O(chunk + vocabulary), independent
  of the number of events in the log — the tier-1 test
  ``TestIngestTransientMemory`` measures and bounds exactly this (a log
  10x the chunk size: 1.19x the transient memory, bound 3x);
* the result can be persisted as a **deterministic** ``.npz`` artifact
  (byte-identical across re-ingests of the same log) and reloaded without
  re-parsing: ``repro.cli ingest <csv> --out <npz>`` then
  ``repro.cli train --scenario <npz>``.
"""

from __future__ import annotations

import csv
import gc
import math
import operator
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress, count, islice
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.utils.artifact import ArtifactError, read_artifact, write_artifact

#: dataset-artifact ``format`` tag (bumped when a reader of the previous
#: version could no longer load the file)
ARTIFACT_FORMAT = "repro-dataset-npz-v1"

#: the behaviors of the paper's §IV-A rating partition, as indexed by
#: :func:`rating_codes`
RATING_BEHAVIORS = ("dislike", "neutral", "like")


def rating_codes(ratings: np.ndarray) -> np.ndarray:
    """Paper §IV-A: r ≤ 2 → 0 (dislike), 2 < r < 4 → 1, r ≥ 4 → 2 (like)."""
    return np.where(ratings <= 2.0, 0, np.where(ratings >= 4.0, 2, 1))


class BadRowError(ValueError):
    """A row failed to parse (missing column, NaN/garbage rating, ...)."""


@dataclass
class IngestOptions:
    """Parsing knobs of :func:`ingest_csv` and :func:`iter_event_chunks`.

    ``chunk_rows`` bounds every transient buffer: the log is read, checked
    and encoded in blocks of at most this many records.
    """

    delimiter: str = ","
    user_col: str = "user"
    item_col: str = "item"
    behavior_col: str | None = "behavior"
    rating_col: str | None = None
    timestamp_col: str | None = "timestamp"
    has_header: bool = True
    on_bad_rows: str = "raise"
    chunk_rows: int = 100_000

    def __post_init__(self):
        if (self.behavior_col is None) == (self.rating_col is None):
            raise ValueError(
                "exactly one of behavior_col / rating_col must be given")
        if self.on_bad_rows not in ("raise", "skip"):
            raise ValueError("on_bad_rows must be 'raise' or 'skip'")
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")


@dataclass
class IngestReport:
    """What happened to the rows of one log.

    ``rows_read`` counts data rows (header and blank lines excluded);
    ``rows_dropped_bad`` the malformed ones dropped under
    ``on_bad_rows="skip"`` (always 0 under ``"raise"``), with up to five
    ``(row number, reason)`` samples in ``bad_row_examples``;
    ``rows_dropped_behavior`` the rows filtered out by an explicit
    ``behavior_names``; ``chunks`` the blocks that held a parseable row.
    """

    rows_read: int = 0
    rows_kept: int = 0
    rows_dropped_bad: int = 0
    rows_dropped_behavior: int = 0
    chunks: int = 0
    num_users: int = 0
    num_items: int = 0
    has_timestamps: bool = False
    per_behavior: dict[str, int] = field(default_factory=dict)
    bad_row_examples: list[tuple[int, str]] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "rows_dropped_bad": self.rows_dropped_bad,
            "rows_dropped_behavior": self.rows_dropped_behavior,
            "chunks": self.chunks,
            "num_users": self.num_users,
            "num_items": self.num_items,
            "has_timestamps": self.has_timestamps,
            "per_behavior": dict(self.per_behavior),
        }


@dataclass
class EventChunk:
    """The rows of one block that parsed, as columns.

    ``users`` / ``items`` hold the stripped id cells, ``timestamps`` the
    parsed times (0.0 where the log has none) and ``codes`` indexes
    ``labels``, the behavior names the block may carry. Iterating yields
    ``(user, item, behavior, timestamp)`` tuples in file order.
    """

    users: Sequence[str]
    items: Sequence[str]
    labels: Sequence[str]
    codes: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[tuple[str, str, str, float]]:
        behaviors = [self.labels[code] for code in self.codes.tolist()]
        return zip(self.users, self.items, behaviors, self.timestamps.tolist())


def iter_event_chunks(path: str | Path, options: IngestOptions,
                      report: IngestReport | None = None,
                      ) -> Iterator[EventChunk]:
    """Stream the log's parseable rows, one :class:`EventChunk` per block.

    A block is ``options.chunk_rows`` records of the file; ratings are
    already mapped to behaviors and bad rows follow ``options.on_bad_rows``
    (counted into ``report`` when skipping). With a header, a required
    column it does not name is a ``ValueError`` before any row is parsed;
    the timestamp column may be absent (every timestamp is then 0.0).
    Row numbers count the file's records from 0, header and blank lines
    included.
    """
    names = (options.user_col, options.item_col,
             options.behavior_col or options.rating_col, options.timestamp_col)
    # utf-8-sig: a byte-order mark must not become part of the first name
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=options.delimiter)
        next_row = 0
        # positional: user, item, behavior-or-rating, [timestamp]
        where = [0, 1, 2, None if options.timestamp_col is None else 3]
        if options.has_header:
            header: list[str] = []
            for row in reader:
                next_row += 1
                if row:
                    header = [cell.strip() for cell in row]
                    break
            column_of = {name: idx for idx, name in enumerate(header)}
            for name in names[:3]:
                if name not in column_of:
                    raise ValueError(
                        f"{path}: column {name!r} is not in the header {header}")
            where = [column_of.get(name) for name in names]
        while True:
            # the pause never spans the yield: the consumer runs with the
            # collector as its caller left it
            with _collector_paused():
                block = list(islice(reader, options.chunk_rows))
                if not block:
                    return
                numbers: Sequence[int] = range(next_row, next_row + len(block))
                next_row += len(block)
                if not all(block):  # blank lines
                    numbers = list(compress(numbers, block))
                    block = list(filter(None, block))
                if report is not None:
                    report.rows_read += len(block)
                chunk = _parse_block(block, numbers, where, options, report)
                del block  # freed by refcount, never seen by a collection
            if len(chunk):
                if report is not None:
                    report.chunks += 1
                yield chunk


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector if it is on; restore it on exit,
    exceptions included."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _parse_block(rows: list[list[str]], numbers: Sequence[int],
                 where: list[int | None], options: IngestOptions,
                 report: IngestReport | None) -> EventChunk:
    """Check and convert one block column by column; drop or raise its bad rows."""
    count = len(rows)
    bad = np.zeros(count, dtype=bool)
    cells = []
    for idx in where[:3]:
        column, any_empty = _stripped(_column(rows, idx))
        if any_empty:
            bad |= np.fromiter(map(operator.not_, column), bool, count)
        cells.append(column)
    users, items, values = cells
    if options.rating_col is not None:
        ratings = _floats(values, empty=math.nan)
        bad |= ~np.isfinite(ratings)
    if where[3] is None:
        stamps = [""] * count
        times = np.zeros(count)
    else:
        stamps = _column(rows, where[3])
        times = _floats(stamps, empty=0.0)
        bad |= ~np.isfinite(times)

    if bad.any():
        flagged = np.flatnonzero(bad).tolist()

        def reason(k: int) -> str:
            return _first_defect(numbers[k], users[k], items[k], values[k],
                                 stamps[k], options)

        if options.on_bad_rows == "raise":
            raise BadRowError(reason(flagged[0]))
        if report is not None:
            report.rows_dropped_bad += len(flagged)
            room = max(5 - len(report.bad_row_examples), 0)
            report.bad_row_examples += [(numbers[k], reason(k))
                                        for k in flagged[:room]]
        good = (~bad).tolist()
        users, items, values = (list(compress(column, good))
                                for column in cells)
        times = times[~bad]

    if options.rating_col is not None:
        labels = RATING_BEHAVIORS
        codes = rating_codes(ratings[~bad])
    else:
        code_of = _vocabulary()
        codes = _dense_ids(values, code_of)
        labels = list(code_of)
    return EventChunk(users, items, labels, codes, times)


def _column(rows: list[list[str]], idx: int) -> list[str]:
    """Cell ``idx`` of every row; a row too short to have one gives ``""``."""
    try:
        return [row[idx] for row in rows]
    except IndexError:
        return [row[idx] if idx < len(row) else "" for row in rows]


def _stripped(cells: list[str]) -> tuple[list[str], bool]:
    """The column with every cell stripped — one ``strip`` per distinct
    cell — and whether any cell came out empty."""
    distinct = list(dict.fromkeys(cells))
    texts = list(map(str.strip, distinct))
    if texts != distinct:
        cells = list(map(dict(zip(distinct, texts)).__getitem__, cells))
    return cells, "" in texts


def _floats(cells: list[str], empty: float) -> np.ndarray:
    """The column as float64: a blank cell is ``empty``, an unparseable one
    NaN (so ``isfinite`` flags it together with ``nan`` and ``inf`` cells)."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        def lenient(text: str) -> float:
            try:
                return float(text)
            except ValueError:
                return math.nan if text.strip() else empty
        value_of = {cell: lenient(cell) for cell in dict.fromkeys(cells)}
        return np.fromiter(map(value_of.__getitem__, cells), np.float64,
                           len(cells))


def _first_defect(row_num: int, user: str, item: str, value: str, stamp: str,
                  options: IngestOptions) -> str:
    """Name what is wrong with a row the column checks flagged: its first
    defect in reading order (ids, behavior or rating, timestamp)."""
    if not user or not item:
        return f"row {row_num}: missing user/item id"
    if not value:
        return (f"row {row_num}: missing column "
                f"{options.behavior_col or options.rating_col!r}")
    checks = [("timestamp", stamp.strip())]
    if options.rating_col is not None:
        checks.insert(0, ("rating", value))
    for what, text in checks:
        try:
            finite = math.isfinite(float(text))
        except ValueError:
            if text:
                return f"row {row_num}: unparseable {what} {text!r}"
        else:
            if not finite:
                return f"row {row_num}: non-finite {what} {text!r}"
    raise AssertionError(f"row {row_num} was flagged but parses")


def ingest_csv(path: str | Path, name: str, target_behavior: str,
               behavior_names: tuple[str, ...] | None = None,
               options: IngestOptions | None = None,
               **option_overrides) -> tuple[InteractionDataset, IngestReport]:
    """One-pass, chunked ingestion of an event log into a dataset.

    Each chunk of :func:`iter_event_chunks` is filtered to
    ``behavior_names`` (when given), its ids are made dense in order of
    first surviving appearance, and the encoded rows go to a temporary
    spill file; once the log is drained the per-behavior arrays are
    allocated at their exact sizes and filled from that file. Nothing
    proportional to the log is resident before that point.

    ``options`` or keyword overrides of :class:`IngestOptions` fields, not
    both.
    """
    if options is None:
        options = IngestOptions(**option_overrides)
    elif option_overrides:
        raise ValueError("pass either options or keyword overrides, not both")

    report = IngestReport()
    keep: set[str] | None = set(behavior_names) if behavior_names else None
    user_index = _vocabulary()
    item_index = _vocabulary()
    discovered: dict[str, int] = {}
    runs: list[tuple[list[int], list[int]]] = []
    with tempfile.TemporaryFile() as spill:
        for chunk in iter_event_chunks(path, options, report):
            users, items, codes, times = (chunk.users, chunk.items,
                                          chunk.codes, chunk.timestamps)
            if not discovered.keys() >= set(chunk.labels):
                # a behavior not met before: number the chunk's in order
                # of first appearance, as a row-by-row reader would
                _, first = np.unique(codes, return_index=True)
                for code in codes[np.sort(first)].tolist():
                    discovered.setdefault(chunk.labels[code], len(discovered))
            if keep is not None:
                kept = np.array([label in keep for label in chunk.labels])[codes]
                report.rows_dropped_behavior += len(chunk) - int(kept.sum())
                selectors = kept.tolist()
                users = list(compress(users, selectors))
                items = list(compress(items, selectors))
                codes, times = codes[kept], times[kept]
            # -1: a label the chunk names and none of its rows carries
            codes = np.array([discovered.get(label, -1)
                              for label in chunk.labels])[codes]
            report.has_timestamps |= bool(times.any())
            runs.append(_spill_chunk(spill, codes, _dense_ids(users, user_index),
                                     _dense_ids(items, item_index), times))

        if behavior_names is None:
            behavior_names = tuple(discovered)
        if target_behavior not in behavior_names:
            raise ValueError(
                f"target behavior {target_behavior!r} absent from data "
                f"(saw {tuple(discovered)})")
        by_code = _read_spill(spill, runs)

    interactions = {b: by_code.get(discovered.get(b)) or _columns(0)
                    for b in behavior_names}
    report.per_behavior = {b: len(rec["users"]) for b, rec in interactions.items()}
    report.rows_kept = sum(report.per_behavior.values())
    report.num_users = len(user_index)
    report.num_items = len(item_index)
    dataset = InteractionDataset(
        name=name,
        num_users=len(user_index),
        num_items=len(item_index),
        behavior_names=behavior_names,
        target_behavior=target_behavior,
        interactions=interactions,
    )
    return dataset, report


def _columns(rows: int) -> dict[str, np.ndarray]:
    return {"users": np.empty(rows, dtype=np.int64),
            "items": np.empty(rows, dtype=np.int64),
            "timestamps": np.empty(rows, dtype=np.float64)}


def _vocabulary() -> defaultdict[str, int]:
    """A cell → dense id map that numbers a cell it has not met next."""
    return defaultdict(count().__next__)


def _dense_ids(cells: Sequence[str], index: defaultdict[str, int]) -> np.ndarray:
    """The column's dense ids, in order of first appearance (``index`` is
    a :func:`_vocabulary`, so a new cell is numbered on lookup)."""
    return np.fromiter(map(index.__getitem__, cells), np.int64, len(cells))


def _spill_chunk(spill: BinaryIO, codes: np.ndarray, *columns: np.ndarray,
                 ) -> tuple[list[int], list[int]]:
    """Append a chunk's columns, each grouped by behavior code (file order
    kept within a code); returns the codes present and the rows of each."""
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes)
    present = np.flatnonzero(counts)
    for column in columns:
        spill.write(column[order])
    return present.tolist(), counts[present].tolist()


def _read_spill(spill: BinaryIO, runs: list[tuple[list[int], list[int]]],
                ) -> dict[int, dict[str, np.ndarray]]:
    """Per behavior code, the spilled columns as exactly-sized arrays."""
    totals: dict[int, int] = {}
    for present, counts in runs:
        for code, count in zip(present, counts):
            totals[code] = totals.get(code, 0) + count
    arrays = {code: _columns(total) for code, total in totals.items()}
    filled = dict.fromkeys(totals, 0)
    spill.seek(0)
    for present, counts in runs:
        for label in ("users", "items", "timestamps"):
            for code, count in zip(present, counts):
                run = arrays[code][label][filled[code]:filled[code] + count]
                if spill.readinto(run) != run.nbytes:
                    raise OSError("ingest spill file is shorter than what was "
                                  "written to it")
        for code, count in zip(present, counts):
            filled[code] += count
    return arrays


# ----------------------------------------------------------------------
# Deterministic dataset artifacts
# ----------------------------------------------------------------------

_COLUMNS = ("users", "items", "timestamps")


def save_dataset_npz(dataset: InteractionDataset, path: str | Path,
                     has_timestamps: bool | None = None) -> Path:
    """Persist a dataset as a deterministic ``.npz``-compatible artifact.

    Byte-identical for identical datasets (a :mod:`repro.utils.artifact`
    container). Readable with :func:`load_dataset_npz` (or plain
    ``np.load`` for the arrays).
    """
    if has_timestamps is None:
        has_timestamps = any(
            bool(np.any(dataset.arrays(b)[2] != 0.0))
            for b in dataset.behavior_names)
    meta = {
        "format": ARTIFACT_FORMAT,
        "name": dataset.name,
        "behavior_names": list(dataset.behavior_names),
        "target_behavior": dataset.target_behavior,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "has_timestamps": bool(has_timestamps),
    }
    # index prefix keeps member order stable and behavior names free of
    # path-separator constraints
    arrays = {f"b{index}_{label}": column
              for index, behavior in enumerate(dataset.behavior_names)
              for label, column in zip(_COLUMNS, dataset.arrays(behavior))}
    return write_artifact(path, arrays, meta)


def load_dataset_npz(path: str | Path) -> tuple[InteractionDataset, dict]:
    """Load a dataset artifact written by :func:`save_dataset_npz`.

    Returns ``(dataset, meta)`` where ``meta`` carries the artifact
    header (including ``has_timestamps``). The header is not covered by
    the container's fingerprints, so what it declares is checked against
    the arrays here, at the file boundary: a file whose ids exceed its
    ``num_users``/``num_items`` is an
    :class:`~repro.utils.artifact.ArtifactError` naming the first
    offending value, not a failure inside graph construction.
    """
    arrays, meta = read_artifact(path)
    if meta.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"{path} is not a dataset artifact "
                            f"(format={meta.get('format')!r})")
    try:
        bounds = {"users": int(meta["num_users"]),
                  "items": int(meta["num_items"])}
        interactions = {}
        for index, behavior in enumerate(meta["behavior_names"]):
            columns = {label: arrays[f"b{index}_{label}"]
                       for label in _COLUMNS}
            _check_columns(path, behavior, columns, bounds)
            interactions[behavior] = columns
        dataset = InteractionDataset(
            name=meta["name"],
            num_users=bounds["users"],
            num_items=bounds["items"],
            behavior_names=tuple(meta["behavior_names"]),
            target_behavior=meta["target_behavior"],
            interactions=interactions,
        )
    except ArtifactError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: header and members of the dataset "
                            f"artifact disagree ({exc!r})") from None
    return dataset, meta


def _check_columns(path: str | Path, behavior: str,
                   columns: dict[str, np.ndarray],
                   bounds: dict[str, int]) -> None:
    lengths = {label: column.shape for label, column in columns.items()}
    if len(set(lengths.values())) != 1 or columns["users"].ndim != 1:
        raise ArtifactError(f"{path}: behavior {behavior!r} columns must be "
                            f"equally long 1-d arrays, got shapes {lengths}")
    for label, bound in bounds.items():
        ids = columns[label]
        if ids.dtype.kind not in "iu":
            raise ArtifactError(f"{path}: behavior {behavior!r} {label} must "
                                f"be integer ids, got dtype {ids.dtype}")
        bad = np.flatnonzero((ids < 0) | (ids >= bound))
        if bad.size:
            raise ArtifactError(
                f"{path}: behavior {behavior!r} {label}[{bad[0]}] = "
                f"{ids[bad[0]]} is outside [0, {bound}), the header's "
                f"num_{label}")

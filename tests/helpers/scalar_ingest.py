"""Row-by-row reference for :mod:`repro.data.ingest`.

This is the parser ``ingest.py`` had before it went columnar — one
``_parse_row`` call per row, the rating partition as plain comparisons,
the whole log held as Python tuples — kept here so that the differential tests have
something slow and obvious to compare the column-wise code with. It reads
the file the way ``iter_event_chunks`` documents: ``utf-8-sig``, the first
non-blank record is the header, row numbers count records from 0.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from repro.data import BadRowError, IngestOptions, IngestReport, InteractionDataset


def rating_behavior(rating: float) -> str:
    """Paper §IV-A: r ≤ 2 → dislike, 2 < r < 4 → neutral, r ≥ 4 → like."""
    if rating <= 2.0:
        return "dislike"
    if rating < 4.0:
        return "neutral"
    return "like"


def parse_rating(text: str, row_num: int) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise BadRowError(
            f"row {row_num}: unparseable rating {text!r}") from None
    if not math.isfinite(value):
        raise BadRowError(f"row {row_num}: non-finite rating {text!r}")
    return value


def parse_timestamp(text: str | None, row_num: int) -> float:
    if text is None or text == "":
        return 0.0
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise BadRowError(
            f"row {row_num}: unparseable timestamp {text!r}") from None
    if not math.isfinite(value):
        raise BadRowError(f"row {row_num}: non-finite timestamp {text!r}")
    return value


def parse_row(row: list[str], row_num: int, column_of: dict[str, int] | None,
              options: IngestOptions) -> tuple[str, str, str, float]:
    if column_of is None:
        # positional: user, item, behavior-or-rating, [timestamp]
        column_of = {options.user_col: 0, options.item_col: 1,
                     (options.behavior_col or options.rating_col): 2,
                     options.timestamp_col: 3}

    def cell(column: str) -> str | None:
        idx = column_of.get(column)
        if idx is None or idx >= len(row):
            return None
        return row[idx].strip()

    user = cell(options.user_col)
    item = cell(options.item_col)
    if not user or not item:
        raise BadRowError(f"row {row_num}: missing user/item id")
    if options.rating_col is not None:
        raw_rating = cell(options.rating_col)
        if not raw_rating:
            raise BadRowError(f"row {row_num}: missing column "
                              f"{options.rating_col!r}")
        rating = parse_rating(raw_rating, row_num)
        behavior = rating_behavior(rating)
    else:
        behavior = cell(options.behavior_col)
        if not behavior:
            raise BadRowError(f"row {row_num}: missing column "
                              f"{options.behavior_col!r}")
    timestamp = 0.0
    if options.timestamp_col is not None:
        timestamp = parse_timestamp(cell(options.timestamp_col), row_num)
    return user, item, behavior, timestamp


def scalar_ingest(path: str | Path, name: str, target_behavior: str,
                  behavior_names: tuple[str, ...] | None = None,
                  **options) -> tuple[InteractionDataset, IngestReport]:
    """What ``ingest_csv`` must return (``report.chunks`` aside: a row-by-row
    reader has no chunks)."""
    options = IngestOptions(**options)
    report = IngestReport()
    events: list[tuple[str, str, str, float]] = []
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        column_of: dict[str, int] | None = None
        header_pending = options.has_header
        for row_num, row in enumerate(csv.reader(handle,
                                                 delimiter=options.delimiter)):
            if not row:
                continue
            if header_pending:
                header_pending = False
                column_of = {cell.strip(): idx for idx, cell in enumerate(row)}
                continue
            report.rows_read += 1
            try:
                events.append(parse_row(row, row_num, column_of, options))
            except BadRowError as exc:
                if options.on_bad_rows == "raise":
                    raise
                report.rows_dropped_bad += 1
                if len(report.bad_row_examples) < 5:
                    report.bad_row_examples.append((row_num, str(exc)))

    discovered = tuple(dict.fromkeys(event[2] for event in events))
    if behavior_names is None:
        behavior_names = discovered
    if target_behavior not in behavior_names:
        raise ValueError(f"target behavior {target_behavior!r} absent from "
                         f"data (saw {discovered})")
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    grouped = {b: ([], [], []) for b in behavior_names}
    for user, item, behavior, timestamp in events:
        if behavior not in grouped:
            report.rows_dropped_behavior += 1
            continue
        users, items, timestamps = grouped[behavior]
        users.append(user_index.setdefault(user, len(user_index)))
        items.append(item_index.setdefault(item, len(item_index)))
        timestamps.append(timestamp)
        report.has_timestamps |= timestamp != 0.0

    report.per_behavior = {b: len(rec[0]) for b, rec in grouped.items()}
    report.rows_kept = sum(report.per_behavior.values())
    report.num_users = len(user_index)
    report.num_items = len(item_index)
    dataset = InteractionDataset(
        name=name, num_users=len(user_index), num_items=len(item_index),
        behavior_names=behavior_names, target_behavior=target_behavior,
        interactions={
            b: {"users": np.asarray(users, dtype=np.int64),
                "items": np.asarray(items, dtype=np.int64),
                "timestamps": np.asarray(timestamps, dtype=np.float64)}
            for b, (users, items, timestamps) in grouped.items()})
    return dataset, report

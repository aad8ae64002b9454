"""Column-wise ingestion against the row-by-row reference, on hostile logs.

``helpers.scalar_ingest`` is the parser the package used to have; whatever
it says about a log — dataset arrays, counts, which rows are bad and why —
``ingest_csv`` must say too, for every ``chunk_rows``.
"""

import random

import numpy as np
import pytest

from helpers.scalar_ingest import scalar_ingest
from repro.data import BadRowError, ingest_csv

CHUNK_ROWS = (1, 7, 64, 10**5)
SEEDS = (0, 1, 2, 3)

_VALUES = {
    "behavior": (["click", "click", "cart", "buy", "weird"],
                 ["", "  "]),
    "rating": (["1", "2", "2.0", "2.5", "3", "3.99", "4", "4.0", "5", "0.5",
                "1e0", "1_0"],
               ["", " ", "nan", "NaN", "inf", "-inf", "1e999", "five", "0x10",
                "4,5", "3 stars", " nan", " five "]),
}
_GOOD_TIMES = ["17", "1600000000", "3.5", "-2", "1e3", "", "  ", "0"]
_BAD_TIMES = ["nan", "inf", "-Infinity", "yesterday", "12:30", "1e999",
              " inf ", "\tsoon "]


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def hostile_log(seed: int, value_col: str, rows: int = 400,
                header: bool = True) -> bytes:
    """A seeded log with every kind of row the parser has an opinion on."""
    rng = random.Random(seed)
    good_values, bad_values = _VALUES[value_col]
    order = ["user", "item", value_col, "timestamp"]
    if header:
        rng.shuffle(order)
        order.insert(rng.randrange(5), "extra")
    lines = [",".join(f" {name} " if rng.random() < 0.3 else name
                      for name in order)] if header else []
    for index in range(rows):
        cells = {"user": f"u{rng.randrange(40)}", "item": f"i{rng.randrange(90)}",
                 value_col: rng.choice(good_values),
                 "timestamp": rng.choice(_GOOD_TIMES), "extra": "x"}
        kind = rng.random()
        # bad rows also sit on both sides of the 7- and 64-row boundaries
        if index % 7 in (0, 6) and rng.random() < 0.3 or index in (63, 64):
            kind = rng.uniform(0.70, 0.88)
        if kind < 0.05:
            lines.append("")                                  # blank line
            continue
        if kind < 0.15:
            cells["user"] = rng.choice([" {} ", "\t{}", "{}  "]).format(cells["user"])
            cells["item"] = f"  {cells['item']}"
            cells[value_col] = f" {cells[value_col]} "
        elif kind < 0.25:
            cells["user"] = _quote(f"{cells['user']},jr")     # embedded delimiter
            cells["item"] = _quote(f'{cells["item"]} "the" item\nline two')
        elif kind < 0.70:
            pass                                              # a plain row
        elif kind < 0.76:
            cells[rng.choice(["user", "item"])] = rng.choice(["", "   "])
        elif kind < 0.82:
            cells[value_col] = rng.choice(bad_values)
            if "," in cells[value_col]:
                cells[value_col] = _quote(cells[value_col])
        elif kind < 0.88:
            cells["timestamp"] = rng.choice(_BAD_TIMES)
        row = [cells[name] for name in order]
        if 0.88 <= kind < 0.94:
            row = row[:rng.randrange(1, len(row))]            # short row
        elif kind >= 0.94:
            row += ["more"] * rng.randrange(1, 30)            # over-long row
        lines.append(",".join(row))
    # mixed line endings, the last line unterminated
    text = "".join(line + rng.choice(["\n", "\n", "\r\n", "\r"])
                   for line in lines[:-1]) + lines[-1]
    return text.encode()


def _options(value_col: str, header: bool) -> dict:
    options = {"has_header": header}
    if value_col == "rating":
        options.update(behavior_col=None, rating_col="rating")
    return options


def _assert_same(got, want):
    (dataset, report), (ref_dataset, ref_report) = got, want
    assert dataset.behavior_names == ref_dataset.behavior_names
    assert (dataset.num_users, dataset.num_items) == (
        ref_dataset.num_users, ref_dataset.num_items)
    for behavior in ref_dataset.behavior_names:
        for ours, theirs in zip(dataset.arrays(behavior),
                                ref_dataset.arrays(behavior)):
            assert ours.dtype == theirs.dtype
            np.testing.assert_array_equal(ours, theirs)
    counts, ref_counts = report.as_dict(), ref_report.as_dict()
    del counts["chunks"], ref_counts["chunks"]
    assert counts == ref_counts
    assert report.bad_row_examples == ref_report.bad_row_examples


@pytest.mark.parametrize("value_col,target,subset", [
    ("behavior", "buy", ("buy", "click", "cart", "never-seen")),
    ("rating", "like", ("like", "dislike")),
])
class TestAgainstScalarReference:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("header", [True, False])
    def test_skip_mode_identical(self, tmp_path, value_col, target, subset,
                                 seed, header):
        path = tmp_path / "hostile.csv"
        path.write_bytes(hostile_log(seed, value_col, header=header))
        options = _options(value_col, header)
        # odd seeds keep a subset of the behaviors (in an order of their own)
        names = subset if seed % 2 else None
        want = scalar_ingest(path, "d", target, names, on_bad_rows="skip",
                             **options)
        assert want[1].rows_dropped_bad > 5 and want[1].rows_kept > 100
        if names:
            assert want[1].rows_dropped_behavior > 0
        for chunk_rows in CHUNK_ROWS:
            got = ingest_csv(path, "d", target, names, on_bad_rows="skip",
                             chunk_rows=chunk_rows, **options)
            _assert_same(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raise_mode_names_the_same_row(self, tmp_path, value_col, target,
                                           subset, seed):
        path = tmp_path / "hostile.csv"
        path.write_bytes(hostile_log(seed, value_col))
        options = _options(value_col, True)
        with pytest.raises(BadRowError) as want:
            scalar_ingest(path, "d", target, **options)
        for chunk_rows in CHUNK_ROWS:
            with pytest.raises(BadRowError) as got:
                ingest_csv(path, "d", target, chunk_rows=chunk_rows, **options)
            assert str(got.value) == str(want.value)

    def test_every_bad_row_named_alike(self, tmp_path, value_col, target,
                                       subset):
        """``bad_row_examples`` stops at five, so use logs of five rows: each
        of their bad rows is named, and must be named alike."""
        options = _options(value_col, True)
        path = tmp_path / "short.csv"
        kinds = set()
        for seed in range(100, 180):
            path.write_bytes(hostile_log(seed, value_col, rows=5))
            want = scalar_ingest(path, "d", target, subset, on_bad_rows="skip",
                                 **options)
            _assert_same(ingest_csv(path, "d", target, subset, chunk_rows=2,
                                    on_bad_rows="skip", **options), want)
            kinds |= {reason.split(": ", 1)[1].split(" '")[0]
                      for _, reason in want[1].bad_row_examples}
        assert kinds == {
            "missing user/item id", "missing column",
            "unparseable timestamp", "non-finite timestamp",
            *(("unparseable rating", "non-finite rating")
              if value_col == "rating" else ())}

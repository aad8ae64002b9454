"""Streaming-ingestion benchmark: throughput and memory boundedness.

Generates synthetic CSV event logs over a FIXED entity universe and runs
them through :func:`repro.data.ingest.ingest_csv`, measuring

* **throughput** — rows/sec through the whole one-pass pipeline (parse,
  encode, spill, read back), the fastest of ``TIMED_PASSES`` passes made
  with tracemalloc *off* (tracing every allocation slows the parser
  several times over), normalized across machines with the same
  fixed-size reference matmul the serving bench uses;
* **transient memory** — in one further, traced pass: tracemalloc peak
  minus what remains allocated when ingest returns (i.e. peak *above* the
  retained dataset). The chunked design keeps this proportional to one
  chunk plus the entity vocabularies, never the log, so a log ≥ 10× the
  chunk size must not cost meaningfully more transient memory than a
  single-chunk log over the same universe.

Emits ``benchmarks/results/ingest.json`` for the CI regression gate
(``benchmarks/check_regression.py``), which asserts:

* the measured log is ≥ 10× the chunk size (the boundedness claim is
  vacuous otherwise);
* transient memory on the big log stays within
  ``BENCH_INGEST_MEM_RATIO`` (default 3×) of the single-chunk log —
  peak incremental memory is bounded by a chunk-derived cap, independent
  of log length;
* normalized throughput does not regress vs the committed baseline.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_ingest.py
"""

import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "ingest.json"

CHUNK_ROWS = 20_000
#: the big log is ≥ 10x the chunk size — the boundedness scenario
BIG_ROWS = 10 * CHUNK_ROWS
SMALL_ROWS = CHUNK_ROWS
NUM_USERS = 4_000
NUM_ITEMS = 8_000
BEHAVIORS = ("click", "click", "click", "cart", "buy")
#: untraced passes per log; the fastest is the throughput
TIMED_PASSES = 3


def _reference_matmul_seconds(rounds: int = 5) -> float:
    """Fixed dense matmul timing — normalizes throughput across machines."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    b = rng.standard_normal((512, 512))
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        (a @ b).sum()
        best = min(best, time.perf_counter() - start)
    return best


def _write_log(path: Path, num_rows: int, seed: int) -> None:
    """Event log over the fixed universe; entities saturate early so the
    vocabularies cost the same for every log length."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, NUM_USERS, num_rows)
    items = rng.integers(0, NUM_ITEMS, num_rows)
    kinds = rng.integers(0, len(BEHAVIORS), num_rows)
    times = rng.integers(1, 10_000_000, num_rows)
    with path.open("w") as handle:
        handle.write("user,item,behavior,timestamp\n")
        for u, i, k, t in zip(users, items, kinds, times):
            handle.write(f"u{u},i{i},{BEHAVIORS[k]},{t}\n")


def _measure(path: Path) -> dict:
    from repro.data import ingest_csv

    def ingest():
        return ingest_csv(path, name="bench", target_behavior="buy",
                          chunk_rows=CHUNK_ROWS)

    elapsed = float("inf")
    for _ in range(TIMED_PASSES):
        start = time.perf_counter()
        ingest()
        elapsed = min(elapsed, time.perf_counter() - start)
    tracemalloc.start()
    try:
        dataset, report = ingest()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "rows": report.rows_read,
        "chunks": report.chunks,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "seconds": elapsed,
        "rows_per_sec": report.rows_read / elapsed,
        "retained_bytes": current,
        "peak_bytes": peak,
        "transient_bytes": peak - current,
    }


def main() -> None:
    reference = _reference_matmul_seconds()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        small_log = tmp_path / "small.csv"
        big_log = tmp_path / "big.csv"
        print(f"writing logs: {SMALL_ROWS:,} and {BIG_ROWS:,} rows over "
              f"{NUM_USERS:,} users x {NUM_ITEMS:,} items")
        _write_log(small_log, SMALL_ROWS, seed=1)
        _write_log(big_log, BIG_ROWS, seed=2)

        print(f"ingesting small log ({SMALL_ROWS:,} rows, "
              f"chunk {CHUNK_ROWS:,})...")
        small = _measure(small_log)
        print(f"ingesting big log ({BIG_ROWS:,} rows, "
              f"chunk {CHUNK_ROWS:,})...")
        big = _measure(big_log)

    ratio = big["transient_bytes"] / max(small["transient_bytes"], 1)
    payload = {
        "chunk_rows": CHUNK_ROWS,
        "universe": {"num_users": NUM_USERS, "num_items": NUM_ITEMS},
        "small": small,
        "big": big,
        "transient_ratio_big_vs_small": ratio,
        "rows_per_sec": big["rows_per_sec"],
        "reference_matmul_seconds": reference,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"\nthroughput: {big['rows_per_sec']:,.0f} rows/sec "
          f"({big['rows']:,} rows in {big['seconds']:.2f}s)")
    print(f"transient memory: small {small['transient_bytes']:,} B, "
          f"big {big['transient_bytes']:,} B -> ratio {ratio:.2f} "
          f"on {BIG_ROWS // SMALL_ROWS}x the rows")
    print(f"wrote {RESULTS_PATH}")


if __name__ == "__main__":
    main()

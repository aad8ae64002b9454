"""CI perf-regression gate over the ``benchmarks/results`` JSON payloads.

Compares a fresh benchmark run against the committed baselines and fails
(exit 1) when the perf story regresses:

* ``substrate_dtype.json`` — the float32 fast path must stay ≥ 1.3× over
  float64 (the absolute bar the substrate bench has always asserted);
* ``substrate_fused.json`` — the fused stacked-CSR SpMM must never drop
  below parity-with-margin (0.9×) *and* must not lose more than the
  tolerance versus the committed baseline speedup. (The fusion win is
  Python/autograd overhead removal, ~1.2× on record — an absolute 1.3×
  bar would fail the committed baseline itself, so this one is relative.)
* ``serving_throughput.json`` — best retrieval users/sec must not regress
  by more than the tolerance versus baseline. Both payloads carry a
  fixed-size reference matmul timing, so the comparison uses
  machine-normalized throughput (users/sec × reference seconds) when
  available and raw users/sec otherwise. Throughput must also be
  monotone-or-flat across serving batch sizes (``scaling.monotone_frac``
  ≥ ``BENCH_MONO_MIN``): the retriever chunks selection internally, so a
  larger request batch must never cost meaningful throughput — the
  pre-PR-6 payloads showed batch 64 *beating* batch 1024 by ~2x, and this
  is the guard against that anomaly returning.
* ``serving_ann.json`` — the approximate-retrieval sweep must contain at
  least one (nprobe × quant) configuration reaching recall@10 ≥
  ``BENCH_ANN_RECALL_MIN`` at ≥ ``BENCH_ANN_SPEEDUP_MIN``× the exact
  blocked path on the ≥100k-item workload. Recall and speedup are
  measured against the same-machine exact run inside one payload, so no
  cross-machine normalization is needed.
* ``http_serving.json`` — the online HTTP tier (``repro.serve.http``)
  must sustain ≥ ``BENCH_HTTP_BATCH_MIN``× the single-client throughput
  when ≥ 8 concurrent closed-loop clients hit the coalescing batcher
  (that amortized catalog scan is the tier's reason to exist), every
  configuration must report zero non-200 responses and positive p50/p99
  latency, and every response body must bit-match a library-direct
  ``RecommendationService`` call (the HTTP tier is a transport, not a
  different answer). The speedup is a same-machine ratio inside one
  payload, so no cross-machine normalization is needed.
* ``training_throughput.json`` — the mini-batch training step (layered
  per-hop blocks extracted inline, ``propagation="async", workers=0``)
  must stay ≥ 3× faster than the full-graph step on the large synthetic
  graph at batch 32 (the row-sparse mini-batch path's reason to exist),
  the sharded-table mini-batch step (``GNMRConfig(shards=2)``) must cost
  at most ``BENCH_SHARD_MAX``× the unsharded one (sharding is a bounded
  constant-factor tax, never an asymptotic one — see ``repro.shard``),
  and neither ratio may lose more than the tolerance versus the
  committed baseline. Both are same-machine ratios, so no normalization
  is needed. The payload must also carry the ``repro.dist``
  parameter-server sweep: every (workers × staleness) configuration
  trains at a positive rate, and — only when the payload was measured on
  ≥ 4 cores, since concurrent shard owners need real cores — the best
  sync-mode configuration must reach ``BENCH_DIST_MIN`` (1.6×) over the
  single-process sharded mini-batch step. Payloads from smaller boxes
  record the sweep (labeled with their ``cpu_count``) and skip the
  speedup bar.
* ``ingest.json`` — the streaming CSV ingestion (``repro.data.ingest``)
  must stay memory-bounded: on a log ≥ 10× the chunk size over the same
  entity universe, transient memory (tracemalloc peak minus what the
  returned dataset retains) must stay within ``BENCH_INGEST_MEM_RATIO``
  (default 3×) of the single-chunk log — peak incremental memory is
  capped by the chunk buffers plus the vocabularies, never the log
  length. Throughput (rows/sec, matmul-normalized like serving) must not
  regress vs baseline by more than the tolerance.

Usage (what CI runs after regenerating the fresh payloads)::

    python benchmarks/check_regression.py \
        --fresh benchmarks/results --baseline benchmarks/baseline

Environment overrides: ``BENCH_TOLERANCE`` (default 0.20),
``BENCH_FLOAT32_MIN`` (default 1.3), ``BENCH_FUSED_MIN`` (default 0.9),
``BENCH_SAMPLED_MIN`` (default 3.0), ``BENCH_SHARD_MAX`` (default 2.0),
``BENCH_DIST_MIN`` (default 1.6),
``BENCH_MONO_MIN`` (default 0.75),
``BENCH_ANN_RECALL_MIN`` (default 0.95), ``BENCH_ANN_SPEEDUP_MIN``
(default 3.0), ``BENCH_HTTP_BATCH_MIN`` (default 2.0),
``BENCH_INGEST_MEM_RATIO`` (default 3.0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

TOLERANCE = float(os.environ.get("BENCH_TOLERANCE", "0.20"))
FLOAT32_MIN = float(os.environ.get("BENCH_FLOAT32_MIN", "1.3"))
FUSED_MIN = float(os.environ.get("BENCH_FUSED_MIN", "0.9"))
SAMPLED_MIN = float(os.environ.get("BENCH_SAMPLED_MIN", "3.0"))
SHARD_MAX = float(os.environ.get("BENCH_SHARD_MAX", "2.0"))
DIST_MIN = float(os.environ.get("BENCH_DIST_MIN", "1.6"))
MONO_MIN = float(os.environ.get("BENCH_MONO_MIN", "0.75"))
ANN_RECALL_MIN = float(os.environ.get("BENCH_ANN_RECALL_MIN", "0.95"))
ANN_SPEEDUP_MIN = float(os.environ.get("BENCH_ANN_SPEEDUP_MIN", "3.0"))
HTTP_BATCH_MIN = float(os.environ.get("BENCH_HTTP_BATCH_MIN", "2.0"))
INGEST_MEM_RATIO = float(os.environ.get("BENCH_INGEST_MEM_RATIO", "3.0"))


def _load(directory: Path, name: str) -> dict | None:
    path = directory / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _load_baseline(directory: Path, name: str) -> dict | None:
    """Baseline payload: the given directory, else the git-committed copy.

    CI stashes the committed ``benchmarks/results`` into a baseline dir
    before the benches overwrite it; locally that dir usually doesn't
    exist, so fall back to ``git show HEAD:benchmarks/results/<name>.json``
    — the same committed baseline, without a manual stash step.
    """
    payload = _load(directory, name)
    if payload is not None:
        return payload
    import subprocess

    repo_root = Path(__file__).resolve().parent.parent
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:benchmarks/results/{name}.json"],
            cwd=repo_root, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(blob)
    except (subprocess.CalledProcessError, FileNotFoundError,
            json.JSONDecodeError):
        return None


def _normalized_throughput(payload: dict) -> tuple[float, str]:
    """Machine-normalized serving throughput, or raw when no reference."""
    best = float(payload["best_users_per_sec"])
    reference = payload.get("reference_matmul_seconds")
    if reference:
        return best * float(reference), "normalized"
    return best, "raw"


class Gate:
    def __init__(self):
        self.failures: list[str] = []
        self.checks = 0

    def check(self, label: str, ok: bool, detail: str) -> None:
        self.checks += 1
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {label}: {detail}")
        if not ok:
            self.failures.append(label)

    def skip(self, label: str, reason: str) -> None:
        print(f"[skip] {label}: {reason}")


def run(fresh_dir: Path, baseline_dir: Path) -> int:
    gate = Gate()

    # -------------------------------------------------- float32 fast path
    dtype = _load(fresh_dir, "substrate_dtype")
    if dtype is None:
        gate.check("substrate_dtype", False, "fresh payload missing")
    else:
        speedup = float(dtype["speedup_float32"])
        gate.check("float32-speedup", speedup >= FLOAT32_MIN,
                   f"{speedup:.2f}x (floor {FLOAT32_MIN}x)")
        for precision in ("float32", "float64"):
            gate.check(f"grad-check-{precision}",
                       dtype[precision]["grad_check"] == "passed",
                       dtype[precision]["grad_check"])

    # -------------------------------------------------------- fused SpMM
    fused = _load(fresh_dir, "substrate_fused")
    fused_base = _load_baseline(baseline_dir, "substrate_fused")
    if fused is None:
        gate.check("substrate_fused", False, "fresh payload missing")
    else:
        speedup = float(fused["speedup_fused"])
        gate.check("fused-speedup-floor", speedup >= FUSED_MIN,
                   f"{speedup:.2f}x (floor {FUSED_MIN}x)")
        if fused_base is None:
            gate.skip("fused-speedup-vs-baseline", "no committed baseline")
        else:
            base = float(fused_base["speedup_fused"])
            floor = base * (1.0 - TOLERANCE)
            gate.check("fused-speedup-vs-baseline", speedup >= floor,
                       f"{speedup:.2f}x vs baseline {base:.2f}x "
                       f"(floor {floor:.2f}x)")

    # -------------------------------------------------------- serving
    serving = _load(fresh_dir, "serving_throughput")
    serving_base = _load_baseline(baseline_dir, "serving_throughput")
    if serving is None:
        gate.check("serving_throughput", False, "fresh payload missing")
    else:
        best = float(serving["best_users_per_sec"])
        gate.check("serving-throughput-positive", best > 0,
                   f"{best:,.0f} users/sec")
        for batch, row in serving["batch_sizes"].items():
            gate.check(f"serving-batch-{batch}",
                       float(row["users_per_sec"]) > 0,
                       f"{row['users_per_sec']:,.0f} users/sec")
        scaling = serving.get("scaling")
        if scaling is None:
            # payloads generated before PR 6 carry no scaling section
            gate.skip("serving-batch-scaling", "payload has no scaling data")
        else:
            frac = float(scaling["monotone_frac"])
            gate.check("serving-batch-scaling", frac >= MONO_MIN,
                       f"worst consecutive batch-size ratio {frac:.2f} "
                       f"(floor {MONO_MIN}; order "
                       f"{scaling['batch_order']})")
        if serving_base is None:
            gate.skip("serving-vs-baseline", "no committed baseline")
        else:
            fresh_value, fresh_kind = _normalized_throughput(serving)
            base_value, base_kind = _normalized_throughput(serving_base)
            if fresh_kind != base_kind:
                # one payload predates the reference timing — fall back
                fresh_value = float(serving["best_users_per_sec"])
                base_value = float(serving_base["best_users_per_sec"])
                fresh_kind = "raw"
            floor = base_value * (1.0 - TOLERANCE)
            gate.check(
                "serving-vs-baseline", fresh_value >= floor,
                f"{fresh_value:,.2f} vs baseline {base_value:,.2f} "
                f"({fresh_kind}; floor {floor:,.2f}, tol {TOLERANCE:.0%})")

    # -------------------------------------------- approximate retrieval
    ann = _load(fresh_dir, "serving_ann")
    if ann is None:
        gate.check("serving_ann", False, "fresh payload missing")
    else:
        num_items = int(ann["workload"]["num_items"])
        gate.check("ann-workload-size", num_items >= 100_000,
                   f"{num_items:,} items (floor 100,000)")
        qualifying = [row for row in ann["sweep"]
                      if float(row["recall_at_10"]) >= ANN_RECALL_MIN
                      and float(row["speedup_vs_exact"]) >= ANN_SPEEDUP_MIN]
        if qualifying:
            best = max(qualifying,
                       key=lambda row: float(row["speedup_vs_exact"]))
            detail = (f"quant={best['quant']} nprobe={best['nprobe']}: "
                      f"{float(best['speedup_vs_exact']):.2f}x at recall@10 "
                      f"{float(best['recall_at_10']):.3f} (floors "
                      f"{ANN_SPEEDUP_MIN}x / {ANN_RECALL_MIN})")
        else:
            sweep = ann["sweep"]
            best_recall = max(float(r["recall_at_10"]) for r in sweep)
            best_speed = max(float(r["speedup_vs_exact"]) for r in sweep)
            detail = (f"no config reaches recall@10 >= {ANN_RECALL_MIN} at "
                      f">= {ANN_SPEEDUP_MIN}x (best recall {best_recall:.3f}, "
                      f"best speedup {best_speed:.2f}x)")
        gate.check("ann-recall-speedup", bool(qualifying), detail)

    # --------------------------------------------------- HTTP serving tier
    http_serving = _load(fresh_dir, "http_serving")
    http_base = _load_baseline(baseline_dir, "http_serving")
    if http_serving is None:
        gate.check("http_serving", False, "fresh payload missing")
    else:
        for name, config in http_serving["configs"].items():
            gate.check(f"http-{name}-clean",
                       int(config["errors"]) == 0 and bool(config["bit_match"]),
                       f"errors={config['errors']} "
                       f"bit_match={config['bit_match']}")
            gate.check(f"http-{name}-latency",
                       float(config["p50_ms"]) > 0
                       and float(config["p99_ms"]) >= float(config["p50_ms"]),
                       f"p50 {float(config['p50_ms']):.2f} ms / "
                       f"p99 {float(config['p99_ms']):.2f} ms at "
                       f"{float(config['users_per_sec']):,.0f} users/sec")
        batched = http_serving["configs"]["exact_batched"]
        gate.check("http-concurrency", int(batched["clients"]) >= 8,
                   f"{batched['clients']} concurrent clients (floor 8)")
        speedup = float(http_serving["batched_speedup_vs_single"])
        gate.check("http-batched-speedup", speedup >= HTTP_BATCH_MIN,
                   f"{speedup:.2f}x vs single-client baseline "
                   f"(floor {HTTP_BATCH_MIN}x)")
        if http_base is None:
            gate.skip("http-speedup-vs-baseline", "no committed baseline")
        else:
            base = float(http_base["batched_speedup_vs_single"])
            floor = base * (1.0 - TOLERANCE)
            gate.check("http-speedup-vs-baseline", speedup >= floor,
                       f"{speedup:.2f}x vs baseline {base:.2f}x "
                       f"(floor {floor:.2f}x)")

    # ------------------------------------------------- streaming ingest
    ingest = _load(fresh_dir, "ingest")
    ingest_base = _load_baseline(baseline_dir, "ingest")
    if ingest is None:
        gate.check("ingest", False, "fresh payload missing")
    else:
        chunk_rows = int(ingest["chunk_rows"])
        big_rows = int(ingest["big"]["rows"])
        gate.check("ingest-log-size", big_rows >= 10 * chunk_rows,
                   f"{big_rows:,} rows vs chunk {chunk_rows:,} "
                   f"(floor 10x the chunk)")
        ratio = float(ingest["transient_ratio_big_vs_small"])
        gate.check("ingest-transient-memory", ratio <= INGEST_MEM_RATIO,
                   f"{ratio:.2f}x transient memory on "
                   f"{big_rows // max(int(ingest['small']['rows']), 1)}x the "
                   f"rows (ceiling {INGEST_MEM_RATIO}x: peak incremental "
                   f"memory must be chunk-bounded, not log-bounded)")
        rows_per_sec = float(ingest["rows_per_sec"])
        gate.check("ingest-throughput-positive", rows_per_sec > 0,
                   f"{rows_per_sec:,.0f} rows/sec")
        if ingest_base is None:
            gate.skip("ingest-vs-baseline", "no committed baseline")
        else:
            reference = ingest.get("reference_matmul_seconds")
            base_reference = ingest_base.get("reference_matmul_seconds")
            fresh_value = rows_per_sec
            base_value = float(ingest_base["rows_per_sec"])
            kind = "raw"
            if reference and base_reference:
                fresh_value *= float(reference)
                base_value *= float(base_reference)
                kind = "normalized"
            floor = base_value * (1.0 - TOLERANCE)
            gate.check("ingest-vs-baseline", fresh_value >= floor,
                       f"{fresh_value:,.2f} vs baseline {base_value:,.2f} "
                       f"({kind}; floor {floor:,.2f}, tol {TOLERANCE:.0%})")

    # -------------------------------------------------------- training
    training = _load(fresh_dir, "training_throughput")
    training_base = _load_baseline(baseline_dir, "training_throughput")
    if training is None:
        gate.check("training_throughput", False, "fresh payload missing")
    else:
        speedup = float(training["speedup_sampled_large"])
        gate.check("sampled-training-speedup", speedup >= SAMPLED_MIN,
                   f"{speedup:.2f}x (floor {SAMPLED_MIN}x)")
        shard_overhead = training.get("shard_overhead_large")
        if shard_overhead is None:
            gate.check("shard-overhead", False,
                       "payload has no shard_overhead_large")
        else:
            shard_overhead = float(shard_overhead)
            gate.check("shard-overhead", shard_overhead <= SHARD_MAX,
                       f"{shard_overhead:.2f}x vs unsharded mini-batch "
                       f"(ceiling {SHARD_MAX}x, mean step time)")
        for scale, row in training["scales"].items():
            for mode in ("full", "async_w0", "async_w1", "sharded"):
                if mode not in row:
                    gate.check(f"training-{scale}-{mode}", False,
                               "mode missing from payload")
                    continue
                gate.check(f"training-{scale}-{mode}",
                           float(row[mode]["steps_per_sec"]) > 0,
                           f"{row[mode]['steps_per_sec']:.2f} steps/sec "
                           f"({row[mode]['step_ms']:.1f} ms/step)")
        dist = training.get("dist")
        if dist is None:
            gate.check("dist-sweep", False, "payload has no dist section")
        else:
            rows = dist["sync_sweep"] + dist["async_staleness_curve"]
            gate.check("dist-sweep",
                       bool(rows) and all(float(r["steps_per_sec"]) > 0
                                          for r in rows),
                       f"{len(dist['sync_sweep'])} sync + "
                       f"{len(dist['async_staleness_curve'])} async "
                       f"configs trained on {dist['cpu_count']} core(s)")
            dist_speedup = float(dist["sync_speedup"])
            if int(dist["cpu_count"]) >= 4:
                gate.check("dist-sync-speedup", dist_speedup >= DIST_MIN,
                           f"{dist_speedup:.2f}x vs single-process sharded "
                           f"mini-batch at workers="
                           f"{dist['sync_best_workers']} (floor "
                           f"{DIST_MIN}x on {dist['cpu_count']} cores)")
            else:
                # a 1-core box serializes the owner processes — the sweep
                # documents transport overhead, not the concurrency win
                gate.skip("dist-sync-speedup",
                          f"measured on {dist['cpu_count']} core(s); the "
                          f"{DIST_MIN}x bar needs >= 4")
        if training_base is None:
            gate.skip("sampled-speedup-vs-baseline", "no committed baseline")
        else:
            base = float(training_base["speedup_sampled_large"])
            floor = base * (1.0 - TOLERANCE)
            gate.check("sampled-speedup-vs-baseline", speedup >= floor,
                       f"{speedup:.2f}x vs baseline {base:.2f}x "
                       f"(floor {floor:.2f}x)")
        base_shard = (training_base or {}).get("shard_overhead_large")
        if base_shard is None:
            # committed baselines from before sharded tables landed
            gate.skip("shard-overhead-vs-baseline", "no committed baseline")
        elif shard_overhead is not None:
            # the overhead ratio sits near 1.0 (measured ~1.05), so a purely
            # multiplicative ceiling (base*1.2 = 1.26x) would leave less
            # headroom than the absolute SHARD_MAX bar was chosen to give —
            # runner noise on a near-parity ratio is additive, not
            # proportional. Floor the ceiling at 1 + 2*tolerance.
            ceiling = max(float(base_shard) * (1.0 + TOLERANCE),
                          1.0 + 2.0 * TOLERANCE)
            gate.check("shard-overhead-vs-baseline",
                       shard_overhead <= ceiling,
                       f"{shard_overhead:.2f}x vs baseline "
                       f"{float(base_shard):.2f}x (ceiling {ceiling:.2f}x)")

    print(f"\n{gate.checks} checks, {len(gate.failures)} failure(s)"
          + (f": {', '.join(gate.failures)}" if gate.failures else ""))
    return 1 if gate.failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=Path,
                        default=Path(__file__).parent / "results",
                        help="directory with the freshly generated JSON")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "baseline",
                        help="directory with the committed baseline JSON")
    args = parser.parse_args(argv)
    return run(args.fresh, args.baseline)


if __name__ == "__main__":
    sys.exit(main())

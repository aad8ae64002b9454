"""The one command of the end-to-end benchmark.

::

    python3 benchmarks/e2e/run.py                      # all three workloads
    python3 benchmarks/e2e/run.py --trace              # … with per-layer spans
    python3 benchmarks/e2e/run.py --check-repeat       # two sets, compared
    python3 benchmarks/e2e/run.py --workload ingest-logs --seed 7 \
        --seconds 20 --trace 0                         # what the driver runs

Every metric is printed by name with its unit; every output is checked
(HTTP bodies against library-direct answers, ingest counts against the
generator's, round trips array-equal, losses finite, quality and recall
above the workload's floors) and a failed check makes the exit code
non-zero. With
``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
OUT = HERE / "out"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

#: set-up runs this many times per run and ``setup_s`` is the median
SETUP_REPEATS = 5
#: runs per workload in each of the two sets of ``--check-repeat``
REPEAT_RUNS = 3
#: run conditions of the workload process, fixed so that two runs of the
#: same code agree. Without the two allocator settings glibc hands every
#: large numpy temporary back to the kernel and faults it in again (as
#: transparent huge pages, which numpy asks for): on the 2-core box that
#: made one full-graph propagation take anywhere from 1.2 to 3.6 s, most of
#: it system time. The hash seed fixes str-keyed dict layouts (vocabularies).
#: One BLAS thread, because the trainer and its extraction worker, or the
#: server and its two clients, already keep both cores busy
WORKLOAD_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}
#: the driver allows a run 180 s; give up on the workload process earlier
CHILD_TIMEOUT_S = 170


def reference_matmul_seconds() -> float:
    """Fixed dense matmul timing — normalises numbers across machines (the
    same product ``benchmarks/bench_http_serving.py`` times)."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 256)).astype(np.float32)
    b = rng.standard_normal((256, 2048)).astype(np.float32)
    a @ b
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return best


def environment(seed: int, seconds: float, scale: float) -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(),
            "blas_threads": int(WORKLOAD_ENV["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__,
            "reference_matmul_seconds": reference_matmul_seconds(),
            "workload_env": WORKLOAD_ENV,
            "seed": seed, "seconds": seconds, "scale": scale}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: float) -> dict:
    """Generate the inputs (timed), then run the workload in its own process."""
    import workloads

    workload = workloads.BY_NAME[name].at_scale(scale)
    directory = OUT / f"work-{name}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workloads.generate_inputs(workload, seed, directory)
            setup_seconds.append(time.perf_counter() - start)
        spec = directory / "spec.json"
        spec.write_text(json.dumps({
            "workload": name, "scale": scale, "seed": seed, "seconds": seconds,
            "traced": traced, "inputs": inputs, "directory": str(directory)}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        child = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(spec)],
            stdout=subprocess.PIPE, env=env, timeout=CHILD_TIMEOUT_S, text=True)
        if child.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result["end_to_end"]["setup_s"] = {
        "value": statistics.median(setup_seconds), "unit": "s"}
    result["setup_samples"] = setup_seconds
    return result


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------

def print_result(name: str, result: dict, traced: bool) -> None:
    notes = result["notes"]
    print(f"\n== {name}: {notes['rows']} rows, {notes['users']} users × "
          f"{notes['items']} items ({notes['served_items']} served), "
          f"{notes['train_steps']} steps, "
          f"{notes['eval_users']} evaluated users "
          f"({'traced' if traced else 'plain'} pass)")
    print(f"   samples:     {notes['samples']}")
    print(f"   closed loop: {notes['closed_loop']}")
    print(f"   open loop:   {notes['open_loop']}")
    print(f"   setup_s samples: "
          f"{', '.join(f'{s:.3f}' for s in result['setup_samples'])}")
    for metric, entry in result["per_layer" if traced else "end_to_end"].items():
        print(f"   {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    if traced:
        print(f"   serve.http.request_tail_ms is p"
              f"{100 * notes['tail_quantile']:.2f}; within_slo_share is the "
              f"share answered within {notes['slo_ms']:g} ms of due")
        print(f"   the traced training loop took {notes['traced_fit_gap']:+.3f} of "
              f"model.fit's time longer (what two trainings differ by)")
        print("   self time by span (s): " + ", ".join(
            f"{span} {seconds:.3f}"
            for span, seconds in notes["self_seconds"].items()))
    attempted, failed = result["attempted"], result["failed"]
    print(f"   attempted {attempted}, failed {failed}, "
          f"failed_share {failed / attempted:.6f}")
    for reason in notes["failures"]:
        print(f"   FAILED: {reason}")


def driver_line(result: dict, traced: bool) -> str:
    wanted = CONTRACT["per_layer" if traced else "end_to_end"]
    source = result["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: source[metric["name"]] for metric in wanted}})


def check_repeat(names: list[str], args) -> bool:
    """Two sets of runs of the same code, compared metric by metric."""
    sets = []
    resolved = True
    for label in ("first", "second"):
        medians = {}
        for name in names:
            runs = [run_workload(name, args.seed + i, args.seconds, False,
                                 args.scale)
                    for i in range(REPEAT_RUNS)]
            for run in runs:
                if not run["correct"]:
                    resolved = False
                    print(f"{name}: failed checks: {run['notes']['failures']}")
            medians[name] = {
                metric: statistics.median(run["end_to_end"][metric]["value"]
                                          for run in runs)
                for metric in runs[0]["end_to_end"]}
            print(f"{label} set, {name}: done ({REPEAT_RUNS} runs)", flush=True)
        sets.append(medians)
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    print(f"\n{'workload':<20}{'metric':<24}{'first':>14}{'second':>14}"
          f"{'gap':>9}{'bound':>7}")
    for name in names:
        for metric, bound in bounds.items():
            a, b = sets[0][name][metric], sets[1][name][metric]
            gap = (b - a) / a
            verdict = "PASS" if abs(gap) <= bound else "UNRESOLVED"
            resolved &= verdict == "PASS"
            print(f"{name:<20}{metric:<24}{a:>14.6g}{b:>14.6g}"
                  f"{gap:>+9.3f}{bound:>7.2f}  {verdict}")
    return resolved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in CONTRACT["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(CONTRACT["run_seconds"]),
                        help="length of one run; sets the traffic phases")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer pass with spans")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="users, items and steps × this (0.02 = smoke)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets back to back and compare them")
    args = parser.parse_args()

    if not (SOURCE / "repro").is_dir():
        print(f"no program to benchmark: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    # before numpy loads here too, so that the reference matmul is timed
    # under the workload's BLAS setting; the workload processes inherit it
    os.environ.update(WORKLOAD_ENV)
    env = environment(args.seed, args.seconds, args.scale)
    print("env " + json.dumps(env))
    if args.check_repeat:
        return 0 if check_repeat(selected, args) else 1

    # the driver asks for one pass; by hand, --trace adds the traced pass
    # to the plain one, because end-to-end numbers are quoted untraced
    traced = bool(args.trace)
    passes = [traced] if args.workload or not traced else [False, True]
    ok = True
    for name in selected:
        for traced in passes:
            result = run_workload(name, args.seed, args.seconds, traced,
                                  args.scale)
            print_result(name, result, traced)
            ok &= result["correct"]
            OUT.mkdir(exist_ok=True)
            label = "traced" if traced else "plain"
            (OUT / f"result-{name}-{label}.json").write_text(json.dumps(
                {"env": env, "workload": name, **result}, indent=1) + "\n")
    sys.stdout.flush()
    if args.workload:
        print(driver_line(result, traced))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

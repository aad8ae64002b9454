"""The one perf-gate mechanism of the four ``bench_*`` perf scripts.

A floor that is a same-run, same-machine ratio is a module-level constant
next to the code that measures it, and the script exits non-zero when it is
missed. Comparing against another commit is the job of ``benchmarks/e2e``
and the root ``BENCH_<pr>.json`` trajectory, not of anything here.
"""

import argparse
import json
import time
from pathlib import Path


def best_time(fn, rounds: int) -> float:
    """Minimum wall time over several rounds (robust against noise)."""
    fn()  # warm up caches / allocator
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class Gate:
    """One PASS / FAIL line per floor; ``summary()`` is the exit code."""

    def __init__(self):
        self.failures: list[str] = []
        self.checks = 0

    def check(self, label: str, ok: bool, detail: str) -> None:
        self.checks += 1
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
        if not ok:
            self.failures.append(label)

    def summary(self) -> int:
        print(f"\n{self.checks} checks, {len(self.failures)} failure(s)"
              + (f": {', '.join(self.failures)}" if self.failures else ""))
        return 1 if self.failures else 0


def main(name: str, measure, gate, argv: list[str] | None = None) -> int:
    """Measure, print the payload, optionally keep it, gate it."""
    parser = argparse.ArgumentParser(description=f"{name}: measure and gate")
    parser.add_argument("--out", type=Path, metavar="DIR",
                        help=f"also write the payload to DIR/{name}.json")
    args = parser.parse_args(argv)
    payload = measure()
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{name}.json").write_text(text + "\n")
    checks = Gate()
    gate(payload, checks)
    return checks.summary()

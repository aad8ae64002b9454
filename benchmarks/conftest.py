"""Shared benchmark utilities.

Every benchmark runs its experiment exactly once (``pedantic`` with one
round) — these are *reproduction* benchmarks whose value is the result
table, not statistical timing. Results are printed and also dumped to
``benchmarks/results/*.json`` (ignored by git).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` through pytest-benchmark with a single round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def save_results(name: str, payload) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


@pytest.fixture(scope="session")
def bench_scale():
    """The scale shared by all reproduction benchmarks."""
    from repro.experiments import SMALL_SCALE

    return SMALL_SCALE

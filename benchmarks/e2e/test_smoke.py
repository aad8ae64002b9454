"""Smoke test of the end-to-end benchmark, collected by the tier-1 suite.

Runs the one command the way the driver does — one workload per process,
plain and traced — at 2% scale, and holds it to what ``BENCHMARK.json``
promises: every workload runs, every metric comes back by its name with
its unit and a finite value, and every output check passes. The six
runs go side by side: they are checked for answers, not for speed.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_every_metric_of_every_workload_is_printed():
    runs = {
        (workload["name"], trace): subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", "3", "--seconds", "1", "--scale", "0.02",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for workload in CONTRACT["workloads"] for trace in (0, 1)}
    for (name, trace), process in runs.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, (name, trace, out[-2000:], err[-2000:])
        assert NAME.fullmatch(name)
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, out[-2000:]
        assert result["attempted"] >= 1
        wanted = CONTRACT["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {metric["name"] for metric in wanted}
        for metric in wanted:
            assert NAME.fullmatch(metric["name"])
            entry = result["metrics"][metric["name"]]
            assert math.isfinite(entry["value"]), (name, metric["name"])
            assert entry["unit"] == metric["unit"], (name, metric["name"])
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                             rf"{re.escape(metric['unit'])}$", out, re.M), \
                f"{name}: {metric['name']} is not printed with its unit"

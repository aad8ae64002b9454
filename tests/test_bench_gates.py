"""The perf floors of the four ``benchmarks/bench_*.py`` scripts, unmeasured.

Each script is ``measure() -> dict`` plus a pure ``gate(payload, gate)``;
these tests feed ``gate`` hand-written payloads — one sitting exactly on
every floor (exit 0), then the same payload with each floor missed in turn
(exit 1, the failed label named) — so no measurement runs here.
"""

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from gate import Gate, main  # noqa: E402


def _http_config(clients):
    return {"clients": clients, "requests": 64 * clients, "errors": 0,
            "bit_match": True, "p50_ms": 8.0, "p99_ms": 20.0,
            "users_per_sec": 100.0}


def _ann_row(quant, nprobe, speedup, recall):
    return {"quant": quant, "nprobe": nprobe, "speedup_vs_exact": speedup,
            "recall_at_10": recall}


#: one payload per script, every gated number exactly on its floor
ON_THE_FLOOR = {
    "bench_substrate_perf": {
        "dtype_propagation": {"speedup_float32": 1.3},
        "fused_spmm": {"speedup_fused": 0.9}},
    "bench_serving": {
        "retrieval": {"scaling": {"batch_order": [64, 256, 1024],
                                  "monotone_frac": 0.75}},
        "ann": {"workload": {"num_items": 100_000},
                "sweep": [_ann_row("none", 32, 0.7, 1.0),
                          _ann_row("int8", 4, 3.0, 0.95)]}},
    "bench_training": {
        "speedup_sampled_large": 3.0},
    "bench_http_serving": {
        "configs": {"exact_single": _http_config(1),
                    "exact_batched": _http_config(8),
                    "ivf_int8_batched": _http_config(8),
                    "ivf_int8_one_client": {**_http_config(1),
                                            "max_wait_ms": 2.0,
                                            "queue_wait_p50_ms": 0.5}},
        "batched_speedup_vs_single": 1.4,
        "library_speedup_vs_single": 1.8,
        "batched_efficiency": 0.75},
}


def _run_gate(script, payload):
    """(exit code, failed labels) of ``script``'s gate over ``payload``."""
    checks = Gate()
    importlib.import_module(script).gate(payload, checks)
    return checks.summary(), checks.failures


def _with(payload, path, value):
    payload = copy.deepcopy(payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


@pytest.mark.parametrize("script", sorted(ON_THE_FLOOR))
def test_payload_on_every_floor_passes(script, capsys):
    assert _run_gate(script, ON_THE_FLOOR[script]) == (0, [])
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("script, path, value, label", [
    ("bench_substrate_perf", ("dtype_propagation", "speedup_float32"), 1.29,
     "float32-speedup"),
    ("bench_substrate_perf", ("fused_spmm", "speedup_fused"), 0.89,
     "fused-speedup"),
    ("bench_serving", ("retrieval", "scaling", "monotone_frac"), 0.74,
     "serving-batch-scaling"),
    # close enough and fast enough, but never in the same row
    ("bench_serving", ("ann", "sweep"),
     [_ann_row("none", 4, 3.5, 0.949), _ann_row("int8", 8, 2.99, 0.999)],
     "ann-recall-speedup"),
    ("bench_serving", ("ann", "workload", "num_items"), 99_999,
     "ann-workload-size"),
    ("bench_training", ("speedup_sampled_large",), 2.9,
     "sampled-training-speedup"),
    ("bench_http_serving", ("configs", "exact_single", "bit_match"), False,
     "http-exact_single-bit-match"),
    ("bench_http_serving", ("configs", "exact_batched", "clients"), 7,
     "http-concurrency"),
    ("bench_http_serving", ("batched_efficiency",), 0.74,
     "http-batched-efficiency"),
    ("bench_http_serving", ("configs", "ivf_int8_batched", "errors"), 1,
     "http-ivf_int8_batched-non-200"),
    # a lone request that sat out the window
    ("bench_http_serving", ("configs", "ivf_int8_one_client",
                            "queue_wait_p50_ms"), 0.51,
     "http-lone-request-wait"),
])
def test_each_missed_floor_fails_by_name(script, path, value, label, capsys):
    payload = _with(ON_THE_FLOOR[script], path, value)
    assert _run_gate(script, payload) == (1, [label])
    assert f"[FAIL] {label}: " in capsys.readouterr().out


def test_main_prints_gates_and_writes_only_under_out(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    payload = {"ratio": 1.0}

    def gate(measured, checks):
        checks.check("ratio-floor", measured["ratio"] >= 2.0, "1.00x")

    assert main("toy", lambda: payload, gate, argv=[]) == 1
    out = capsys.readouterr().out
    assert json.loads(out[:out.index("[FAIL]")]) == payload
    assert "1 checks, 1 failure(s): ratio-floor" in out
    assert list(tmp_path.iterdir()) == []

    out_dir = tmp_path / "results"
    assert main("toy", lambda: {"ratio": 2.0}, gate,
                argv=["--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "toy.json").read_text()) == {"ratio": 2.0}

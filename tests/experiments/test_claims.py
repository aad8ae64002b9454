"""Every experiment's shape claims on hand-written results, unmeasured.

Each case is a results dict sitting exactly on the claim's threshold (it
must hold) and the same dict nudged one float step past it (it must not),
the pattern ``tests/test_bench_gates.py`` uses for the perf floors.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import metric_std_error
from repro.experiments import EXPERIMENTS, MODEL_NAMES, SMALL_SCALE

#: σ at 10 000 users is small enough that table II's 0.06 floor binds
MANY_USERS = replace(SMALL_SCALE, num_users=10_000)


def below(value):
    return np.nextafter(value, -np.inf)


def above(value):
    return np.nextafter(value, np.inf)


def _rows(hr: dict[str, float]) -> dict[str, dict[str, float]]:
    return {label: {"HR@10": value, "NDCG@10": value / 2} for label, value in hr.items()}


def _table2(gnmr: float, best: float = 0.6, median: float = 0.4):
    """13 rows: one best, GNMR, and the rest around ``median``."""
    others = [m for m in MODEL_NAMES if m not in ("GNMR", "NADE")]
    hr = {m: (median if i < 6 else 0.1) for i, m in enumerate(others)}
    return _rows({**hr, "NADE": best, "GNMR": gnmr})


def _sweep(gnmr_hr9: float):
    """Table III rows whose HR@9 ranking puts NADE first, GNMR wherever;
    GNMR is listed before NMTR, so a tie between them ranks GNMR second."""
    rows = {}
    for model, hr9 in (("BiasMF", 0.5), ("NADE", 0.7), ("GNMR", gnmr_hr9), ("NMTR", 0.6)):
        rows[model] = {**{f"HR@{n}": hr9 * n / 9 for n in (1, 3, 5, 7, 9)},
                       **{f"NDCG@{n}": hr9 * n / 18 for n in (1, 3, 5, 7, 9)}}
    return rows


def _fig3(depth0: float, best_deep: float):
    return _rows({"GNMR-0": depth0, "GNMR-1": best_deep, "GNMR-2": 0.1, "GNMR-3": 0.2})


def _fig2(be_hr: float, ma_ndcg: float):
    rows = _rows({"GNMR-be": be_hr, "GNMR-ma": 0.3, "GNMR": 0.5})
    rows["GNMR-ma"]["NDCG@10"] = ma_ndcg
    return rows


def _with(results, label, column, value):
    results = copy.deepcopy(results)
    results[label][column] = value
    return results


VALID = _rows({"GNMR": 1.0, "BiasMF": 0.0, "NADE": 0.5})
VALID["GNMR"]["NDCG@10"] = 1.0  # 0 ≤ NDCG = HR = 1 on the boundary

SWEEP = _sweep(0.65)
SWEEP["GNMR"]["HR@1"] = 0.65 * 3 / 9 + 1e-12   # HR@1 above HR@3 by the slack
SWEEP["GNMR"]["NDCG@3"] = SWEEP["GNMR"]["HR@3"] + 1e-12

BEST, TOL = 0.6, 0.06
SIGMA_BEST = 0.5  # at 150 users 1.5σ = 0.061 > 0.06 binds instead
SIGMA_TOL = 1.5 * metric_std_error(SIGMA_BEST, SMALL_SCALE.num_users)

#: (experiment, claim, scale) → (results on the threshold, results past it)
CASES = {
    ("table2", "metrics-valid", MANY_USERS):
        (VALID, _with(VALID, "NADE", "NDCG@10", above(0.5))),
    ("table2", "gnmr-near-best", MANY_USERS):
        (_table2(BEST - TOL), _table2(below(BEST - TOL))),
    ("table2", "gnmr-near-best", SMALL_SCALE):
        (_table2(SIGMA_BEST - SIGMA_TOL, best=SIGMA_BEST),
         _table2(below(SIGMA_BEST - SIGMA_TOL), best=SIGMA_BEST)),
    ("table2", "gnmr-at-least-median", MANY_USERS):
        (_table2(0.4 - 1e-9), _table2(below(0.4 - 1e-9))),
    ("table3", "metrics-valid", MANY_USERS):
        (SWEEP, _with(SWEEP, "GNMR", "HR@1", above(SWEEP["GNMR"]["HR@1"]))),
    ("table3", "gnmr-top-two", MANY_USERS):
        (_sweep(0.6), _sweep(below(0.6))),
    ("table4", "metrics-valid", MANY_USERS):
        (VALID, _with(VALID, "BiasMF", "NDCG@10", below(0.0))),
    ("table4", "auxiliary-behaviors-help", MANY_USERS):
        (_rows({"w/o like": 0.5, "only like": 0.5, "GNMR": 0.5 - 0.03}),
         _rows({"w/o like": 0.5, "only like": 0.5, "GNMR": below(0.5 - 0.03)})),
    ("fig2", "metrics-valid", MANY_USERS):
        (VALID, _with(VALID, "GNMR", "HR@10", above(1.0))),
    ("fig2", "ablations-not-better", MANY_USERS):
        (_fig2(0.5 + 0.05, 0.25 + 0.05), _fig2(0.5 + 0.05, above(0.25 + 0.05))),
    ("fig3", "metrics-valid", MANY_USERS):
        (VALID, _with(VALID, "NADE", "NDCG@10", above(0.5))),
    ("fig3", "propagation-helps", MANY_USERS):
        (_fig3(0.4, 0.4), _fig3(0.4, below(0.4))),
    ("ext", "metrics-valid", MANY_USERS):
        (VALID, _with(VALID, "GNMR", "NDCG@10", above(1.0))),
}


@pytest.mark.parametrize("experiment, claim, scale", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2].num_users}-users")
    for case in CASES])
def test_on_the_threshold_holds_and_just_past_it_does_not(experiment, claim, scale):
    on, past = CASES[experiment, claim, scale]
    check = EXPERIMENTS[experiment].claims[claim]
    holds, detail = check(on, scale)
    assert holds, detail
    holds, detail = check(past, scale)
    assert not holds, detail


def test_every_claim_has_a_case():
    covered = {(experiment, claim) for experiment, claim, _ in CASES}
    assert covered == {(name, claim) for name, experiment in EXPERIMENTS.items()
                       for claim in experiment.claims}


def test_check_reports_every_claim_by_name():
    outcome = EXPERIMENTS["fig3"].check(_fig3(0.4, below(0.4)), MANY_USERS)
    assert outcome == {
        "metrics-valid": {"holds": True,
                          "detail": "0 ≤ NDCG@10 ≤ HR@10 ≤ 1 on 4/4 rows"},
        "propagation-helps": {
            "holds": False,
            "detail": "best of GNMR-1..3 HR@10 0.400 ≥ GNMR-0 0.400"}}

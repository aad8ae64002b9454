"""The paper's evaluation as one experiment table and one runner.

Every table and figure that trains models is an :class:`Experiment`: the
rows to train (each a model plus config overrides), the metric columns to
rank them by, the paper's numbers where it reports them, and the shape
claims the reproduction checks on the result — thresholds included, since
synthetic data at laptop scale only reproduces orderings within noise.
:func:`run_experiment` prepares one leave-one-out split with its sampled
candidates and trains, evaluates and records every row on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis import metric_std_error
from repro.data import InteractionDataset, build_eval_candidates, leave_one_out_split
from repro.eval import evaluate_model
from repro.experiments.specs import (
    ExperimentScale,
    MODEL_NAMES,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    SMALL_SCALE,
    dataset_by_name,
    make_model,
)

#: one trained model: (label, model name, GNMR overrides, TrainConfig overrides)
Row = tuple[str, str, dict, dict]
#: what an experiment measures: row label → {column → value}
Results = dict[str, dict[str, float]]
#: a claim over one experiment's results → (holds, the numbers it compared)
ClaimCheck = Callable[[Results, ExperimentScale], tuple[bool, str]]


@dataclass(frozen=True)
class Experiment:
    """One paper table or figure: what to train, what to report, what to check."""

    title: str
    rows: Callable[[InteractionDataset], list[Row]]
    claims: dict[str, ClaimCheck]
    #: cutoffs N of the ``HR@N`` / ``NDCG@N`` columns
    top_ns: tuple[int, ...] = (10,)
    #: add "% vs <label>" columns relative to this row's HR@10 / NDCG@10
    relative_to: str | None = None
    #: the paper's numbers for a dataset, in the shape of :data:`Results`
    paper: Callable[[str], Results | None] = lambda dataset: None

    def check(self, results: Results, scale: ExperimentScale) -> dict[str, dict]:
        """``{claim: {"holds": bool, "detail": str}}`` for every claim."""
        outcome = {}
        for name, claim in self.claims.items():
            holds, detail = claim(results, scale)
            outcome[name] = {"holds": bool(holds), "detail": detail}
        return outcome


def run_experiment(name: str, dataset: str,
                   scale: ExperimentScale = SMALL_SCALE) -> Results:
    """Train and evaluate every row of experiment ``name`` on one dataset."""
    experiment = EXPERIMENTS[name]
    data = dataset_by_name(dataset, scale)
    split = leave_one_out_split(data, rng=np.random.default_rng(scale.seed))
    candidates = build_eval_candidates(
        split.train, split.test_users, split.test_items,
        num_negatives=scale.num_negatives, rng=np.random.default_rng(scale.seed + 1),
    )
    results: Results = {}
    for label, model_name, gnmr_overrides, train_overrides in experiment.rows(data):
        model = make_model(model_name, split.train, scale, gnmr_overrides=gnmr_overrides)
        model.fit(split.train, scale.train_config(**train_overrides))
        outcome = evaluate_model(model, candidates)
        results[label] = {**{f"HR@{n}": outcome.hr(n) for n in experiment.top_ns},
                          **{f"NDCG@{n}": outcome.ndcg(n) for n in experiment.top_ns}}
    reference = results.get(experiment.relative_to)
    if reference:
        for row in results.values():
            for metric in ("HR", "NDCG"):
                base = reference[f"{metric}@10"]
                row[f"{metric}% vs {experiment.relative_to}"] = (
                    100.0 * (row[f"{metric}@10"] - base) / max(base, 1e-9))
    return results


# ----------------------------------------------------------------------
# Table I — dataset statistics (no training)
# ----------------------------------------------------------------------

def run_table1(scale: ExperimentScale = SMALL_SCALE) -> dict[str, dict[str, object]]:
    """Schema/statistics rows for the three (synthetic) datasets."""
    rows: dict[str, dict[str, object]] = {}
    for name in ("yelp", "movielens", "taobao"):
        dataset = dataset_by_name(name, scale)
        stats = dataset.graph().stats()
        row = stats.as_row()
        row["per-behavior"] = stats.interactions_per_behavior
        row["density"] = round(stats.density, 5)
        rows[dataset.name] = row
    return rows


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------

TABLE3_MODELS: tuple[str, ...] = (
    "BiasMF", "NCF-N", "AutoRec", "NADE", "CF-UIcA", "NMTR", "GNMR",
)
#: Table III's cutoffs
TABLE3_NS: tuple[int, ...] = (1, 3, 5, 7, 9)


def behavior_variants(dataset: InteractionDataset) -> dict[str, tuple[str, ...]]:
    """The paper's Table-IV variants for a dataset's behavior inventory.

    Each maps a label to the behavior subset used as propagation edges.
    "w/o <target>" keeps training on the target but removes its edges
    from the graph; "only <target>" keeps only target edges.
    """
    target = dataset.target_behavior
    names = dataset.behavior_names
    variants: dict[str, tuple[str, ...]] = {}
    for behavior in names:
        variants[f"w/o {behavior}"] = tuple(b for b in names if b != behavior)
    variants[f"only {target}"] = (target,)
    variants["GNMR"] = names
    return variants


def _fixed(rows: list[Row]) -> Callable[[InteractionDataset], list[Row]]:
    """Rows that are the same on every dataset."""
    return lambda dataset: rows


def _models(names: tuple[str, ...]) -> list[Row]:
    # the two autoencoder baselines train at a constant learning rate
    return [(name, name, {},
             {"lr_decay": 1.0} if name in ("AutoRec", "CDAE") else {})
            for name in names]


def _gnmr(variants: dict[str, dict]) -> list[Row]:
    return [(label, "GNMR", overrides, {}) for label, overrides in variants.items()]


EXT_VARIANTS: dict[str, dict] = {
    "GNMR (paper defaults)": {},
    "random init (no pretrain)": {"pretrain": False},
    "sum aggregator (literal Eq.2)": {"aggregator": "sum", "pretrain": False},
    "no gated fusion (uniform ψ)": {"use_gated_aggregation": False},
    "single attention head": {"num_heads": 1},
}


# ----------------------------------------------------------------------
# Paper numbers in the shape of the results
# ----------------------------------------------------------------------

def _paper_table2(dataset: str) -> Results | None:
    if dataset not in PAPER_TABLE2["GNMR"]:
        return None
    return {model: {"HR@10": per[dataset][0], "NDCG@10": per[dataset][1]}
            for model, per in PAPER_TABLE2.items()}


def _paper_table3(dataset: str) -> Results | None:
    if dataset != "yelp":
        return None
    return {model: {f"{metric}@{n}": per[metric][n]
                    for metric in ("HR", "NDCG") for n in TABLE3_NS}
            for model, per in PAPER_TABLE3.items()}


def _paper_table4(dataset: str) -> Results | None:
    if dataset not in PAPER_TABLE4:
        return None
    return {label: {"HR@10": hr, "NDCG@10": ndcg}
            for label, (hr, ndcg) in PAPER_TABLE4[dataset].items()}


# ----------------------------------------------------------------------
# Claims — (holds, the numbers compared); the thresholds leave room for
# sampling noise (HR@10's standard error is ≈ 0.04 at 150 test users)
# ----------------------------------------------------------------------

def _ranking(results: Results, column: str) -> list[str]:
    """Row labels by ``column``, best first; ties keep roster order."""
    return sorted(results, key=lambda label: results[label][column], reverse=True)


def _every_row(results: Results, valid: Callable[[dict], bool],
               statement: str) -> tuple[bool, str]:
    bad = [label for label, row in results.items() if not valid(row)]
    detail = f"{statement} on {len(results) - len(bad)}/{len(results)} rows"
    return not bad, detail + (f", not on {bad}" if bad else "")


def metrics_valid(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """0 ≤ NDCG@10 ≤ HR@10 ≤ 1 on every row."""
    return _every_row(results, lambda row: 0.0 <= row["NDCG@10"] <= row["HR@10"] <= 1.0,
                      "0 ≤ NDCG@10 ≤ HR@10 ≤ 1")


def sweep_valid(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """HR@N non-decreasing in N and NDCG@N ≤ HR@N, both within 1e-12."""
    def valid(row) -> bool:
        hr = [row[f"HR@{n}"] for n in TABLE3_NS]
        return (all(a <= b + 1e-12 for a, b in zip(hr, hr[1:]))
                and all(row[f"NDCG@{n}"] <= row[f"HR@{n}"] + 1e-12 for n in TABLE3_NS))

    return _every_row(results, valid, "HR@N non-decreasing in N, NDCG@N ≤ HR@N")


def gnmr_near_best(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """GNMR's HR@10 within max(0.06, 1.5σ) of the best model's, σ the
    binomial standard error at ``scale.num_users`` (a literal rank is
    within noise at this scale)."""
    ranking = _ranking(results, "HR@10")
    best = results[ranking[0]]["HR@10"]
    tolerance = max(0.06, 1.5 * metric_std_error(best, scale.num_users))
    gnmr = results["GNMR"]["HR@10"]
    return gnmr >= best - tolerance, (
        f"GNMR HR@10 {gnmr:.3f} ≥ {ranking[0]} {best:.3f} − {tolerance:.3f} "
        f"(GNMR rank {ranking.index('GNMR') + 1}/{len(ranking)})")


def gnmr_at_least_median(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """GNMR's HR@10 ≥ the (upper) median model's, within 1e-9."""
    median = sorted(row["HR@10"] for row in results.values())[len(results) // 2]
    gnmr = results["GNMR"]["HR@10"]
    return gnmr >= median - 1e-9, f"GNMR HR@10 {gnmr:.4f} ≥ median {median:.4f}"


def gnmr_top_two(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """GNMR first or second by HR at the largest cutoff."""
    column = f"HR@{max(TABLE3_NS)}"
    ranking = _ranking(results, column)
    rank = ranking.index("GNMR") + 1
    return rank <= 2, f"GNMR rank {rank}/{len(ranking)} by {column} ≤ 2 ({', '.join(ranking)})"


def auxiliary_behaviors_help(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """Every behavior's edges: HR@10 ≥ target edges alone − 0.03."""
    only = next(label for label in results if label.startswith("only "))
    full, alone = results["GNMR"]["HR@10"], results[only]["HR@10"]
    return full >= alone - 0.03, f"GNMR HR@10 {full:.3f} ≥ {only} {alone:.3f} − 0.03"


def ablations_not_better(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """Neither GNMR-be nor GNMR-ma beats full GNMR by more than 0.05 on
    HR@10 or NDCG@10."""
    pairs = [(variant, column) for variant in ("GNMR-be", "GNMR-ma")
             for column in ("HR@10", "NDCG@10")]
    full = results["GNMR"]
    return all(results[v][c] <= full[c] + 0.05 for v, c in pairs), \
        "vs GNMR ≤ +0.05: " + ", ".join(f"{v} {c} {results[v][c] - full[c]:+.3f}"
                                        for v, c in pairs)


def propagation_helps(results: Results, scale: ExperimentScale) -> tuple[bool, str]:
    """The best of GNMR-1..3 by HR@10 ≥ GNMR-0 (no message passing)."""
    deep = max(results[f"GNMR-{depth}"]["HR@10"] for depth in (1, 2, 3))
    shallow = results["GNMR-0"]["HR@10"]
    return deep >= shallow, f"best of GNMR-1..3 HR@10 {deep:.3f} ≥ GNMR-0 {shallow:.3f}"


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    "table2": Experiment(
        title="Table II — overall performance",
        rows=_fixed(_models(MODEL_NAMES)),
        claims={"metrics-valid": metrics_valid,
                "gnmr-near-best": gnmr_near_best,
                "gnmr-at-least-median": gnmr_at_least_median},
        paper=_paper_table2),
    "table3": Experiment(
        title="Table III — top-N sweep",
        rows=_fixed(_models(TABLE3_MODELS)),
        claims={"metrics-valid": sweep_valid, "gnmr-top-two": gnmr_top_two},
        top_ns=TABLE3_NS,
        paper=_paper_table3),
    "table4": Experiment(
        title="Table IV — behavior-type ablation",
        rows=lambda dataset: [(label, "GNMR", {"graph_behaviors": behaviors}, {})
                              for label, behaviors in behavior_variants(dataset).items()],
        claims={"metrics-valid": metrics_valid,
                "auxiliary-behaviors-help": auxiliary_behaviors_help},
        paper=_paper_table4),
    "fig2": Experiment(
        title="Figure 2 — component ablation",
        rows=_fixed(_gnmr({"GNMR-be": {"use_behavior_embedding": False},
                           "GNMR-ma": {"use_message_attention": False},
                           "GNMR": {}})),
        claims={"metrics-valid": metrics_valid,
                "ablations-not-better": ablations_not_better}),
    "fig3": Experiment(
        title="Figure 3 — propagation depth",
        rows=_fixed(_gnmr({f"GNMR-{depth}": {"num_layers": depth} for depth in (0, 1, 2, 3)})),
        claims={"metrics-valid": metrics_valid,
                "propagation-helps": propagation_helps},
        relative_to="GNMR-2"),
    "ext": Experiment(
        title="Extension ablations (init / aggregator / fusion / heads / loss)",
        # the one GNMR row with a TrainConfig override
        rows=_fixed(_gnmr(EXT_VARIANTS)
                    + [("BPR loss (vs hinge)", "GNMR", {}, {"loss": "bpr"})]),
        claims={"metrics-valid": metrics_valid}),
}

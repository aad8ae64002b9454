"""Model zoo comparison: the paper's Table II in miniature.

Trains every implemented recommender (12 baselines + GNMR) on the same
Yelp-like dataset through the experiment table's ``table2`` entry and
prints a ranking table next to the paper's reported numbers, then the
shape claims checked on it. Absolute values differ (synthetic data,
laptop scale); the *ordering* — GNMR first, multi-behavior models strong
— is the claim being reproduced.

Run:  python examples/model_comparison.py        (~30 seconds)
"""

import time

from repro.experiments import (
    EXPERIMENTS,
    ExperimentScale,
    dataset_by_name,
    format_claims,
    format_comparison,
    run_experiment,
)


def main() -> None:
    scale = ExperimentScale(num_users=110, num_items=220, epochs=30)
    experiment = EXPERIMENTS["table2"]
    print(f"Dataset: {dataset_by_name('yelp', scale).describe()}")
    start = time.time()
    measured = run_experiment("table2", "yelp", scale)
    print(f"Trained and ranked {len(measured)} models in {time.time() - start:.0f}s\n")

    print(format_comparison(measured, experiment.paper("yelp"),
                            title="Yelp-like data: ours (synthetic, small) vs paper"))

    best = max(measured, key=lambda m: measured[m]["HR@10"])
    print(f"\nBest model by HR@10: {best}")
    print(format_claims(experiment.check(measured, scale)))


if __name__ == "__main__":
    main()

"""Scenario registry: named dataset shapes behind one string.

The public multi-behavior benchmarks (Tmall / Taobao logs, MovieLens and
Yelp ratings, Gowalla check-ins) cannot be vendored, but their *shapes*
can: each :class:`ScenarioSpec` binds a name like ``tmall-like`` to a
:class:`~repro.data.synthetic.SyntheticConfig` preset. ``resolve_scenario``
takes a registry name or an ingested artifact path (``repro.cli ingest``);
the CLI and every experiment share this one catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.data.dataset import InteractionDataset
from repro.data.synthetic import (MOVIELENS, TAOBAO, YELP, SyntheticConfig,
                                  generate_multi_behavior_dataset)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named shape: what it mirrors and the config that makes it. The
    config's size is the default scale, at the real dataset's user:item
    ratio; ``docs/experiments.md`` tables every config."""

    name: str
    description: str
    config: SyntheticConfig

    @property
    def behavior_names(self) -> tuple[str, ...]:
        return self.config.behavior_names

    @property
    def target_behavior(self) -> str:
        return self.config.target_behavior

    def build(self, num_users: int | None = None,
              num_items: int | None = None,
              seed: int = 0) -> InteractionDataset:
        return generate_multi_behavior_dataset(
            self.config.at(num_users, num_items, seed))

    def describe(self) -> dict[str, object]:
        return {
            "behaviors": "{" + ", ".join(self.behavior_names) + "}",
            "target": self.target_behavior,
            "default scale": f"{self.config.num_users}u x "
                             f"{self.config.num_items}i",
            "description": self.description,
        }


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec for spec in (
        ScenarioSpec(
            "tmall-like",
            "Tmall/Taobao UserBehavior e-commerce log: dense exploratory clicks over "
            "a fav/cart funnel into sparse purchases; heavy head-item skew",
            SyntheticConfig(name="tmall-like", num_users=200, num_items=400,
                            popularity_skew=1.2, behaviors={
                                "click": (0.30, 36.0),
                                "fav": (0.55, 5.0, 1.0, "click"),
                                "cart": (0.60, 6.0, 1.0, "click"),
                                "buy": (0.80, 3.5, 0.5, "cart"),
                            })),
        ScenarioSpec(
            "taobao-like",
            "paper's Taobao schema: page_view -> favorite/cart -> purchase "
            "funnel with direct (trace-free) buys",
            TAOBAO),
        ScenarioSpec(
            "movielens-10m-like",
            "MovieLens-10M rating platform: dense explicit ratings mapped "
            "to dislike/neutral/like (paper SIV-A thresholds)",
            # 1.5x the base rate: the 10M dump averages ~140 ratings/user,
            # the densest shape in the catalog
            replace(MOVIELENS.at(scale=1.5), name="movielens-10m-like")),
        ScenarioSpec(
            "yelp-like",
            "Yelp venues: rating-derived behaviors plus a satisfaction-biased 'tip' "
            "auxiliary",
            YELP),
        ScenarioSpec(
            "gowalla-like",
            "Gowalla check-ins: single sparse behavior over a catalog ~2x the user "
            "count, extreme long tail (single-behavior stress scale)",
            SyntheticConfig(name="gowalla-like", num_users=200, num_items=420,
                            popularity_skew=1.5, behaviors={"checkin": (0.55, 9.0)})),
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; pick from "
                         f"{sorted(SCENARIOS)} or pass a dataset artifact "
                         f"path (.npz from `repro.cli ingest`)") from None


def build_scenario(name: str, num_users: int | None = None,
                   num_items: int | None = None,
                   seed: int = 0) -> InteractionDataset:
    """Build a registry scenario at an optional scale override."""
    return get_scenario(name).build(num_users, num_items, seed)


def resolve_scenario(name_or_path: str, num_users: int | None = None,
                     num_items: int | None = None,
                     seed: int = 0) -> InteractionDataset:
    """One string in, one dataset out: registry name or artifact path.

    A value naming a registered scenario builds its skew-matched synthetic
    dataset; anything that looks like a file path loads the ingested
    artifact (scale overrides do not apply to artifacts — the log *is*
    the scale).
    """
    if name_or_path in SCENARIOS:
        return build_scenario(name_or_path, num_users, num_items, seed)
    path = Path(name_or_path)
    if path.suffix == ".npz" or path.exists():
        from repro.data.ingest import load_dataset_npz

        dataset, _ = load_dataset_npz(path)
        return dataset
    raise ValueError(f"unknown scenario {name_or_path!r}; pick from "
                     f"{sorted(SCENARIOS)} or pass a dataset artifact "
                     f"path (.npz from `repro.cli ingest`)")

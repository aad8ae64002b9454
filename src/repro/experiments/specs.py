"""Experiment specifications: scales, model factory, paper-reported numbers.

The paper's absolute numbers are kept here so the harness can print
side-by-side comparisons and check the *shape* of results (orderings),
which is the reproduction target on synthetic data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import GNMR, GNMRConfig
from repro.data import InteractionDataset, movielens_like, taobao_like, yelp_like
from repro.models import (
    AutoRec,
    BiasMF,
    CDAE,
    CFUIcA,
    DIPN,
    DMF,
    NADE,
    NCFGMF,
    NCFMLP,
    NGCF,
    NMTR,
    NeuMF,
    Recommender,
)
from repro.train import TrainConfig


@dataclass(frozen=True)
class ExperimentScale:
    """How big/long experiments run; synthetic stand-in for the real dumps.

    The paper trained on full MovieLens-10M / Yelp / Taobao with a GPU; we
    shrink the universe but keep every protocol choice (leave-one-out,
    99 negatives, d=16, C=8, hinge loss, Adam + 0.96 decay).
    """

    num_users: int = 150
    num_items: int = 260
    num_negatives: int = 99
    epochs: int = 36
    steps_per_epoch: int = 14
    batch_users: int = 28
    per_user: int = 3
    lr: float = 5e-3
    pretrain_epochs: int = 10
    seed: int = 7

    def train_config(self, **overrides) -> TrainConfig:
        base = dict(
            epochs=self.epochs,
            steps_per_epoch=self.steps_per_epoch,
            batch_users=self.batch_users,
            per_user=self.per_user,
            lr=self.lr,
            seed=self.seed,
        )
        base.update(overrides)
        return TrainConfig(**base)

    def gnmr_config(self, **overrides) -> GNMRConfig:
        base = dict(pretrain_epochs=self.pretrain_epochs, seed=self.seed)
        base.update(overrides)
        return GNMRConfig(**base)


#: default scale for the benchmark harness
SMALL_SCALE = ExperimentScale()
#: reduced scale for unit/integration tests
TINY_SCALE = ExperimentScale(num_users=60, num_items=150, num_negatives=49,
                             epochs=10, steps_per_epoch=8, batch_users=16,
                             per_user=2)


def dataset_by_name(name: str, scale: ExperimentScale,
                    seed_offset: int = 0) -> InteractionDataset:
    """Instantiate a dataset schema at a scale.

    The paper's three short names (``movielens``/``yelp``/``taobao``)
    resolve to their generators directly; anything else goes through the
    scenario registry (:mod:`repro.data.scenarios`), so
    ``dataset_by_name("tmall-like", scale)`` and every registered
    ``*-like`` shape work wherever the classic names do.
    """
    generators = {
        "movielens": movielens_like,
        "yelp": yelp_like,
        "taobao": taobao_like,
    }
    if name in generators:
        return generators[name](num_users=scale.num_users,
                                num_items=scale.num_items,
                                seed=scale.seed + seed_offset)
    from repro.data.scenarios import SCENARIOS, build_scenario

    if name not in SCENARIOS:
        raise ValueError(f"unknown dataset {name!r}; pick from "
                         f"{sorted(generators) + sorted(SCENARIOS)}")
    return build_scenario(name, num_users=scale.num_users,
                          num_items=scale.num_items,
                          seed=scale.seed + seed_offset)


#: Table-II model roster in the paper's row order
MODEL_NAMES: tuple[str, ...] = (
    "BiasMF", "DMF", "NCF-M", "NCF-G", "NCF-N", "AutoRec", "CDAE",
    "NADE", "CF-UIcA", "NGCF", "NMTR", "DIPN", "GNMR",
)

#: models that exploit auxiliary behavior types
MULTI_BEHAVIOR_MODELS: tuple[str, ...] = ("NMTR", "DIPN", "GNMR")


def make_model(name: str, train: InteractionDataset,
               scale: ExperimentScale,
               gnmr_overrides: dict | None = None) -> Recommender:
    """Factory building any Table-II model against a training dataset."""
    seed = scale.seed
    num_users, num_items = train.num_users, train.num_items
    if name == "BiasMF":
        return BiasMF(num_users, num_items, seed=seed)
    if name == "DMF":
        return DMF(train, seed=seed)
    if name == "NCF-M":
        return NCFMLP(num_users, num_items, seed=seed)
    if name == "NCF-G":
        return NCFGMF(num_users, num_items, seed=seed)
    if name == "NCF-N":
        return NeuMF(num_users, num_items, seed=seed)
    if name == "AutoRec":
        return AutoRec(train, seed=seed)
    if name == "CDAE":
        return CDAE(train, seed=seed)
    if name == "NADE":
        return NADE(train, seed=seed)
    if name == "CF-UIcA":
        return CFUIcA(train, seed=seed)
    if name == "NGCF":
        return NGCF(train, seed=seed)
    if name == "NMTR":
        return NMTR(train, seed=seed)
    if name == "DIPN":
        return DIPN(train, seed=seed)
    if name == "GNMR":
        return GNMR(train, scale.gnmr_config(**(gnmr_overrides or {})))
    raise ValueError(f"unknown model {name!r}")


# ----------------------------------------------------------------------
# Paper-reported numbers (for comparison columns in reports)
# ----------------------------------------------------------------------

#: Table II — HR@10 / NDCG@10 per (model, dataset)
PAPER_TABLE2: dict[str, dict[str, tuple[float, float]]] = {
    "BiasMF":  {"movielens": (0.767, 0.490), "yelp": (0.755, 0.481), "taobao": (0.262, 0.153)},
    "DMF":     {"movielens": (0.779, 0.485), "yelp": (0.756, 0.485), "taobao": (0.305, 0.189)},
    "NCF-M":   {"movielens": (0.757, 0.471), "yelp": (0.714, 0.429), "taobao": (0.319, 0.191)},
    "NCF-G":   {"movielens": (0.787, 0.502), "yelp": (0.755, 0.487), "taobao": (0.290, 0.167)},
    "NCF-N":   {"movielens": (0.801, 0.518), "yelp": (0.771, 0.500), "taobao": (0.325, 0.201)},
    "AutoRec": {"movielens": (0.658, 0.392), "yelp": (0.765, 0.472), "taobao": (0.313, 0.190)},
    "CDAE":    {"movielens": (0.659, 0.392), "yelp": (0.750, 0.462), "taobao": (0.329, 0.196)},
    "NADE":    {"movielens": (0.761, 0.486), "yelp": (0.792, 0.499), "taobao": (0.317, 0.191)},
    "CF-UIcA": {"movielens": (0.778, 0.491), "yelp": (0.750, 0.469), "taobao": (0.332, 0.198)},
    "NGCF":    {"movielens": (0.790, 0.508), "yelp": (0.789, 0.500), "taobao": (0.302, 0.185)},
    "NMTR":    {"movielens": (0.808, 0.531), "yelp": (0.790, 0.478), "taobao": (0.332, 0.179)},
    "DIPN":    {"movielens": (0.791, 0.500), "yelp": (0.811, 0.540), "taobao": (0.317, 0.178)},
    "GNMR":    {"movielens": (0.857, 0.575), "yelp": (0.848, 0.559), "taobao": (0.424, 0.249)},
}

#: Table III — HR@N / NDCG@N on Yelp for N ∈ {1,3,5,7,9}
PAPER_TABLE3: dict[str, dict[str, dict[int, float]]] = {
    "BiasMF":  {"HR": {1: 0.287, 3: 0.474, 5: 0.626, 7: 0.714, 9: 0.741},
                "NDCG": {1: 0.287, 3: 0.378, 5: 0.432, 7: 0.461, 9: 0.474}},
    "NCF-N":   {"HR": {1: 0.260, 3: 0.481, 5: 0.604, 7: 0.695, 9: 0.742},
                "NDCG": {1: 0.260, 3: 0.396, 5: 0.444, 7: 0.477, 9: 0.492}},
    "AutoRec": {"HR": {1: 0.228, 3: 0.455, 5: 0.586, 7: 0.684, 9: 0.732},
                "NDCG": {1: 0.228, 3: 0.362, 5: 0.410, 7: 0.449, 9: 0.462}},
    "NADE":    {"HR": {1: 0.265, 3: 0.508, 5: 0.642, 7: 0.720, 9: 0.784},
                "NDCG": {1: 0.265, 3: 0.402, 5: 0.454, 7: 0.478, 9: 0.497}},
    "CF-UIcA": {"HR": {1: 0.235, 3: 0.449, 5: 0.576, 7: 0.659, 9: 0.731},
                "NDCG": {1: 0.235, 3: 0.360, 5: 0.412, 7: 0.440, 9: 0.463}},
    "NMTR":    {"HR": {1: 0.214, 3: 0.466, 5: 0.610, 7: 0.700, 9: 0.762},
                "NDCG": {1: 0.214, 3: 0.360, 5: 0.419, 7: 0.450, 9: 0.469}},
    "GNMR":    {"HR": {1: 0.320, 3: 0.590, 5: 0.700, 7: 0.784, 9: 0.831},
                "NDCG": {1: 0.320, 3: 0.473, 5: 0.519, 7: 0.542, 9: 0.558}},
}

#: Table IV — behavior-subset ablation (HR@10, NDCG@10)
PAPER_TABLE4: dict[str, dict[str, tuple[float, float]]] = {
    "movielens": {
        "w/o dislike": (0.834, 0.549),
        "w/o neutral": (0.816, 0.532),
        "w/o like":    (0.838, 0.559),
        "only like":   (0.835, 0.559),
        "GNMR":        (0.857, 0.575),
    },
    "yelp": {
        "w/o tip":     (0.837, 0.535),
        "w/o dislike": (0.833, 0.542),
        "w/o neutral": (0.831, 0.532),
        "only like":   (0.821, 0.527),
        "GNMR":        (0.848, 0.559),
    },
}

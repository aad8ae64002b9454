"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.data import InteractionDataset, load_dataset_npz, taobao_like, yelp_like

#: ``taobao_like(40, 60, seed=3)`` as the per-user-loop generator drew it,
#: frozen through ``save_dataset_npz``: the float64 goldens were recorded
#: on exactly this dataset
FROZEN_TAOBAO = Path(__file__).parent / "fixtures" / "seed_parity_taobao.npz"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_dataset() -> InteractionDataset:
    """A hand-built 4-user / 5-item dataset with two behavior types."""
    return InteractionDataset(
        name="tiny",
        num_users=4,
        num_items=5,
        behavior_names=("view", "buy"),
        target_behavior="buy",
        interactions={
            "view": {
                "users": np.array([0, 0, 1, 1, 2, 3, 3]),
                "items": np.array([0, 1, 1, 2, 3, 0, 4]),
                "timestamps": np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 4.0]),
            },
            "buy": {
                "users": np.array([0, 1, 2, 3, 0]),
                "items": np.array([1, 2, 3, 4, 0]),
                "timestamps": np.array([5.0, 4.0, 2.0, 5.0, 3.0]),
            },
        },
    )


@pytest.fixture(scope="session")
def frozen_taobao() -> InteractionDataset:
    return load_dataset_npz(FROZEN_TAOBAO)[0]


@pytest.fixture(scope="session")
def small_taobao() -> InteractionDataset:
    """A small but realistic funnel dataset shared across tests."""
    return taobao_like(num_users=40, num_items=60, seed=11)


@pytest.fixture(scope="session")
def small_yelp() -> InteractionDataset:
    return yelp_like(num_users=40, num_items=60, seed=13)

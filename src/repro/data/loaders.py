"""File loaders for real dataset dumps.

When the actual MovieLens / Yelp / Taobao files are available they can be
loaded with these helpers; the rating→behavior mapping reproduces §IV-A of
the paper exactly. (The offline benchmark environment uses the synthetic
generators instead; these loaders let real data be dropped in later.)

The loaders are :func:`repro.data.ingest.ingest_csv` under its older
names: one parser, one bad-row policy and one report for every log.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.ingest import (
    RATING_BEHAVIORS,
    IngestReport,
    ingest_csv,
    rating_codes,
)

# Paper §IV-A: r ≤ 2 → dislike, 2 < r < 4 → neutral, r ≥ 4 → like.
RATING_BEHAVIOR_RULES: dict[str, Callable[[float], bool]] = {
    "dislike": lambda r: r <= 2.0,
    "neutral": lambda r: 2.0 < r < 4.0,
    "like": lambda r: r >= 4.0,
}


def map_ratings_to_behaviors(ratings: np.ndarray) -> np.ndarray:
    """Vectorized rating→behavior-name mapping (paper's partition)."""
    codes = rating_codes(np.asarray(ratings, dtype=np.float64))
    return np.array(RATING_BEHAVIORS)[codes]


def load_interactions_csv(path: str | Path, name: str, target_behavior: str,
                          behavior_names: tuple[str, ...] | None = None,
                          **options) -> InteractionDataset:
    """Load a generic interaction file into an :class:`InteractionDataset`.

    ``options`` are :class:`repro.data.ingest.IngestOptions` fields. Two
    modes:

    * ``behavior_col`` given (the default, ``"behavior"``) — each row names
      its behavior type directly (Taobao export style:
      ``user,item,behavior,timestamp``).
    * ``behavior_col=None, rating_col=...`` — behaviors are derived from the
      rating via the paper's mapping (MovieLens / Yelp style).

    User and item ids are re-indexed densely in first-seen order, counting
    only rows that survive behavior filtering — filtered-out behaviors
    leave no phantom ids (and therefore no oversized embedding rows or
    zero-interaction eval users).

    Unparseable/NaN ratings and timestamps raise
    :class:`~repro.data.ingest.BadRowError` by default;
    ``on_bad_rows="skip"`` drops and counts them instead (see
    :func:`load_interactions_csv_with_report` for the counts).
    """
    return ingest_csv(path, name, target_behavior, behavior_names, **options)[0]


def load_interactions_csv_with_report(
        path: str | Path, name: str, target_behavior: str,
        behavior_names: tuple[str, ...] | None = None,
        **options) -> tuple[InteractionDataset, IngestReport]:
    """:func:`load_interactions_csv` plus the :class:`IngestReport` of drops."""
    return ingest_csv(path, name, target_behavior, behavior_names, **options)

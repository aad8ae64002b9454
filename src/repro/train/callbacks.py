"""Training callbacks: early stopping and history recording."""

from __future__ import annotations

from dataclasses import dataclass, field


class EarlyStopping:
    """Stop when a monitored metric hasn't improved for ``patience`` checks.

    ``mode='max'`` for HR/NDCG, ``'min'`` for losses. Tracks the best value
    seen so the caller can restore the corresponding snapshot if desired.
    """

    def __init__(self, patience: int = 5, mode: str = "max", min_delta: float = 0.0):
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.mode = mode
        self.min_delta = min_delta
        self.best: float | None = None
        self.best_step: int = -1
        self._bad_checks = 0
        self._step = 0

    def update(self, value: float) -> bool:
        """Record a metric value; return True if training should stop."""
        improved = (
            self.best is None
            or (self.mode == "max" and value > self.best + self.min_delta)
            or (self.mode == "min" and value < self.best - self.min_delta)
        )
        if improved:
            self.best = value
            self.best_step = self._step
            self._bad_checks = 0
        else:
            self._bad_checks += 1
        self._step += 1
        return self._bad_checks >= self.patience

    def state_dict(self) -> dict:
        """The counters a resumed run needs to stop at the same check."""
        return {"best": self.best, "best_step": self.best_step,
                "bad_checks": self._bad_checks, "step": self._step}

    def load_state_dict(self, state: dict) -> None:
        self.best = state["best"]
        self.best_step = int(state["best_step"])
        self._bad_checks = int(state["bad_checks"])
        self._step = int(state["step"])


@dataclass
class HistoryRecorder:
    """Accumulates per-epoch dictionaries of scalars."""

    rows: list[dict[str, float]] = field(default_factory=list)

    def record(self, **values: float) -> None:
        self.rows.append(dict(values))

    def series(self, key: str) -> list[float]:
        return [row[key] for row in self.rows if key in row]

    def last(self) -> dict[str, float]:
        return self.rows[-1] if self.rows else {}

    def __len__(self) -> int:
        return len(self.rows)

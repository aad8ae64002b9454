"""The per-epoch history a training run records."""

from __future__ import annotations

from dataclasses import dataclass, field


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

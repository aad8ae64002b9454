"""In-memory spans for the benchmark's per-layer numbers.

A span is ``(id, parent id, name, start, end)`` on the ``perf_counter``
clock; all spans of one workload run share the tracer's ``trace_id``.
Spans are recorded by the benchmark's own files around calls into each
layer's public functions — nothing under ``src/`` is instrumented — kept
in memory, and written out once when the workload ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; nesting follows the ``with`` structure per thread."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack = threading.local()

    def _open_spans(self) -> list[int]:
        if not hasattr(self._stack, "ids"):
            self._stack.ids = []
        return self._stack.ids

    def record(self, name: str, start: float, end: float,
               parent_id: int | None = None) -> Span:
        """Add a span measured elsewhere (a request, a worker-thread call)."""
        with self._lock:
            span = Span(len(self.spans), parent_id, name, start, end)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """Time the body; the span's parent is the enclosing open span."""
        open_spans = self._open_spans()
        parent_id = open_spans[-1] if open_spans else None
        with self._lock:
            span = Span(len(self.spans), parent_id, name, 0.0, 0.0)
            self.spans.append(span)
        open_spans.append(span.span_id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            open_spans.pop()

    # ------------------------------------------------------------------
    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [span.seconds for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(self.seconds(name))

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus what its child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                covered[span.parent_id] = (covered.get(span.parent_id, 0.0)
                                           + span.seconds)
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - covered.get(span.span_id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        payload = {
            "trace_id": self.trace_id,
            "clock": "perf_counter seconds",
            "spans": [[s.span_id, s.parent_id, s.name, s.start, s.end]
                      for s in self.spans],
        }
        Path(path).write_text(json.dumps(payload) + "\n")


def span_cost_seconds() -> float:
    """What recording one span costs the thread that records it: the mean
    over 2 000 empty spans on a tracer of its own."""
    tracer = Tracer("span-cost")
    start = time.perf_counter()
    for _ in range(2000):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / 2000

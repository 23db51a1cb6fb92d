"""In-memory spans recorded by the benchmark around its own calls.

A span is ``(id, name, start, end, parent, request)``; times are
``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock, so spans recorded by the controller child
line up with the driver's.  Spans stay in a list until the run ends and
are then written as JSON lines.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import NamedTuple

from benchmarks.e2e.stats import covered


class Span(NamedTuple):
    """One finished span."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


class SpanLog:
    """Append-only span store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = 0

    def open(self) -> tuple[int, float]:
        """Reserve a span id and stamp its start."""
        self._next_id += 1
        return self._next_id, time.perf_counter()

    def close(
        self,
        opened: tuple[int, float],
        name: str,
        parent: int | None = None,
        request: int | None = None,
    ) -> None:
        """Finish the span ``opened`` by :meth:`open`."""
        span_id, start = opened
        self.spans.append(
            Span(span_id, name, start, time.perf_counter(), parent, request)
        )

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: int | None = None,
    ) -> int:
        """Record a span timed elsewhere (the controller child's)."""
        self._next_id += 1
        self.spans.append(Span(self._next_id, name, start, end, parent, request))
        return self._next_id

    def write(self, path: Path) -> None:
        """One JSON object per line: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """``{span id: self time}``: duration minus what children cover.

    Children may overlap each other (parts of one request are awaited
    together), so their union is taken, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals

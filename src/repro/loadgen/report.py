"""The load generator's JSON report schema.

One :class:`LoadReport` summarises one open-loop run: offered vs
achieved rate, per-op outcome counters, and three latency distributions
(all in milliseconds, quantiles estimated from
:class:`~repro.obs.metrics.Histogram` buckets):

- ``response_ms`` -- completion minus *scheduled* send time.  This is
  the coordinated-omission-free number: a request that waited behind a
  stalled backend is charged its whole wait.
- ``service_ms`` -- completion minus *actual* send time: what the wire
  round trip alone cost.
- ``lateness_ms`` -- actual minus scheduled send time: how far behind
  the dispatcher itself fell.

``to_dict`` is the dataclass's own field dump and ``from_dict`` feeds
it straight back to the constructor, so the JSON keys are the field
names and a CI artifact re-reads into an equal report (tested).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

QUANTILE_LABELS = ("p50", "p95", "p99")
"""Quantiles reported for every latency distribution."""


@dataclass
class LoadReport:
    """Everything one open-loop run measured, JSON-serialisable."""

    mode: str  # "steady" | "migrate"
    offered_rate: float
    duration_s: float
    seed: int
    nodes: list[str]
    ops_total: int
    ops_sent: int
    ops_ok: int
    hits: int
    misses: int
    stored: int
    transport_errors: int
    wire_errors: int
    late_sends: int
    achieved_rate: float
    wall_seconds: float
    response_ms: dict[str, float | None]
    service_ms: dict[str, float | None]
    lateness_ms: dict[str, float | None]
    tape_sha256: str
    trace: str | None = None
    migration: dict[str, Any] | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def achieved_fraction(self) -> float:
        """Completed ops as a fraction of the offered tape."""
        if self.ops_total <= 0:
            return 0.0
        return self.ops_ok / self.ops_total

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dump; :meth:`from_dict` inverts it exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LoadReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(**data)


def quantiles_ms(histogram: Any) -> dict[str, float | None]:
    """``{p50, p95, p99}`` of a seconds histogram, in milliseconds."""
    out: dict[str, float | None] = {}
    for label in QUANTILE_LABELS:
        q = int(label[1:]) / 100.0
        value = histogram.quantile(q)
        out[label] = None if value is None else round(value * 1000.0, 3)
    return out

"""Observability for the ElMem reproduction.

The package bundles three layers:

- :mod:`repro.obs.trace` -- one span model for both tiers: seeded
  trace/span ids, wall- and sim-clock windows, events.  Each migration
  is a span tree; a sampled live request is a tree whose spans are
  recorded by every process it crosses (``trace <trace_id> <span_id>``
  wire framing) and rebuilt by trace id;
- :mod:`repro.obs.metrics` -- named counters/gauges/histograms with a
  no-op disabled mode and bucket-interpolated quantiles;
- :mod:`repro.obs.export` / :mod:`repro.obs.timeline` /
  :mod:`repro.obs.scrape` -- one JSONL format and Prometheus exporters,
  an ASCII span-timeline renderer (the ``repro obs`` CLI subcommand,
  which merges any number of JSONL files), and the ``stats obs`` fleet
  scraper behind ``repro top``.

Components take a :class:`Telemetry` handle (tracer + registry pair).
The default is :data:`NULL_TELEMETRY`, whose members absorb every call,
so instrumentation costs almost nothing unless a run opts in via
:func:`create_telemetry`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_SECONDS_BUCKETS,
    MetricsRegistry,
    NULL_METRIC,
    NULL_METRICS,
    bucket_quantile,
)
from repro.obs.trace import (
    CURRENT_CONTEXT,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    SpanEvent,
    TraceContext,
    Tracer,
    current_context,
)


@dataclass(frozen=True)
class Telemetry:
    """A tracer + metrics registry threaded through the stack."""

    tracer: object = NULL_TRACER
    metrics: object = NULL_METRICS

    @property
    def enabled(self) -> bool:
        """True when either layer actually records."""
        return bool(self.tracer.enabled or self.metrics.enabled)


NULL_TELEMETRY = Telemetry()
"""Disabled telemetry: every recording call is a no-op."""


def create_telemetry(
    process: str = "repro",
    *,
    trace_sample: float = 0.0,
    trace_seed: int = 0,
) -> Telemetry:
    """A fresh enabled tracer + registry for one run.

    The tracer always records migration and scenario span trees.  Wire
    requests are traced only when ``trace_sample`` > 0: the proxy then
    starts a trace for that fraction of requests (seeded by
    ``trace_seed``), and every component joins the traces that arrive
    in a ``trace`` frame.
    """
    return Telemetry(
        tracer=Tracer(process, sample_rate=trace_sample, seed=trace_seed),
        metrics=MetricsRegistry(),
    )


__all__ = [
    "CURRENT_CONTEXT",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_SECONDS_BUCKETS",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Span",
    "SpanEvent",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "bucket_quantile",
    "create_telemetry",
    "current_context",
]

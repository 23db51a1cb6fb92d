"""Telemetry exporters: JSONL structured events and Prometheus text.

One JSONL file captures one process's run: a ``meta`` line, one
``event`` line per run-level event, one ``span`` line per recorded span
(flat; trees are rebuilt from parent ids), and one ``metric`` line per
registered metric sample.  :func:`read_jsonl` reads any number of such
files back as one :class:`ObsDump` -- the spans of a request that
crossed processes meet again there -- which is what the ``repro obs``
CLI subcommand renders.

:func:`to_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the text exposition format (``# HELP`` / ``# TYPE`` / samples), with
the spec's escaping rules for help text and label values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, SpanEvent, Tracer

FORMAT_VERSION = 2


@dataclass
class ObsDump:
    """Parsed contents of one or more telemetry JSONL files."""

    meta: dict[str, Any] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    events: list[SpanEvent] = field(default_factory=list)
    metrics: list[dict[str, Any]] = field(default_factory=list)


def write_jsonl(
    path: str | Path,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write one process's telemetry as JSON lines; returns the path."""
    path = Path(path)
    records: list[dict[str, Any]] = [
        {"type": "meta", "version": FORMAT_VERSION, **(meta or {})}
    ]
    if tracer is not None:
        records.extend({"type": "event", **e.to_dict()} for e in tracer.events)
        records.extend({"type": "span", **s.to_dict()} for s in tracer.spans)
    if metrics is not None:
        records.extend({"type": "metric", **m} for m in metrics.snapshot())
    path.write_text(
        "".join(json.dumps(record, default=repr) + "\n" for record in records)
    )
    return path


def read_jsonl(*paths: str | Path) -> ObsDump:
    """Read files written by :func:`write_jsonl` into one dump.

    Lines of an unknown ``type`` are skipped; a line that is not a JSON
    object with a ``type``, or whose record is incomplete, raises
    :class:`~repro.errors.ConfigurationError` naming its file and line.
    """
    dump = ObsDump()
    for path in paths:
        with Path(path).open(encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    _read_record(dump, json.loads(line))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ConfigurationError(
                        f"{path}:{number}: malformed telemetry line: {exc!r}"
                    ) from exc
    return dump


def _read_record(dump: ObsDump, record: dict[str, Any]) -> None:
    kind = record["type"]
    fields = {k: v for k, v in record.items() if k != "type"}
    if kind == "span":
        dump.spans.append(Span.from_dict(fields))
    elif kind == "event":
        dump.events.append(SpanEvent.from_dict(fields))
    elif kind == "metric":
        dump.metrics.append(fields)
    elif kind == "meta":
        dump.meta.update(fields)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(metrics: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen: set[str] = set()
    for metric in metrics.collect():
        if metric.name not in seen:
            seen.add(metric.name)
            help_text = metrics.help_for(metric.name)
            if help_text:
                lines.append(
                    f"# HELP {metric.name} {_escape_help(help_text)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            for le, count in metric.cumulative():
                labels = _format_labels(
                    metric.labels, f'le="{_format_value(le)}"'
                )
                lines.append(f"{metric.name}_bucket{labels} {count}")
            plain = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}_sum{plain} {_format_value(metric.sum)}"
            )
            lines.append(f"{metric.name}_count{plain} {metric.count}")
        else:
            labels = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}{labels} {_format_value(metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")

"""ASCII rendering of span trees: timelines and summary tables.

Built on the same Unicode block vocabulary as
:mod:`repro.analysis.asciiplot` -- each span becomes one row whose bar is
positioned proportionally inside the root span's window, with ``·``
marks where span events (retries, faults) landed.  A tree with sim
windows is drawn on the sim clock, the timeline the paper's figures
use; a tree without them (a wire request, a live scenario phase) on the
wall clock, rebased to the tree's start and labelled ``process:name``
so a cross-process tree says where each span ran.
"""

from __future__ import annotations

from repro.analysis.asciiplot import BLOCKS

from repro.obs.trace import Span, SpanEvent

HALF_BLOCK = BLOCKS[4]  # "▄": a span too short for a full cell


def clock_for(root: Span, preferred: str = "sim") -> str:
    """``preferred``, unless that is the sim clock and no span of the
    tree carries a sim window."""
    if preferred == "sim" and all(s.start_sim_s is None for s in root.walk()):
        return "wall"
    return preferred


def _window(span: Span, clock: str) -> tuple[float, float] | None:
    """The span's (start, end) on the chosen clock, if recorded."""
    if clock == "sim":
        if span.start_sim_s is None:
            return None
        end = (
            span.end_sim_s
            if span.end_sim_s is not None
            else span.start_sim_s
        )
        return span.start_sim_s, end
    return span.start_s, span.end_s if span.end_s is not None else span.start_s


def _event_time(event: SpanEvent, clock: str) -> float | None:
    return event.sim_s if clock == "sim" else event.wall_s


def _label(span: Span, depth: int, clock: str) -> str:
    name = span.name if clock == "sim" else f"{span.process}:{span.name}"
    if "src" in span.attributes or "dst" in span.attributes:
        name += (
            f" {span.attributes.get('src', '?')}"
            f"->{span.attributes.get('dst', '?')}"
        )
    return "  " * depth + name


def render_timeline(
    root: Span, width: int = 60, clock: str = "sim"
) -> str:
    """Render one span tree as an indented bar timeline.

    Each row shows the span's position within the root's window and its
    duration on the chosen clock (``"sim"`` or ``"wall"``); span events
    are overlaid as ``·`` marks.
    """
    if clock not in ("sim", "wall"):
        raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
    rows: list[tuple[int, Span]] = []

    def collect(span: Span, depth: int) -> None:
        rows.append((depth, span))
        for child in span.children:
            collect(child, depth + 1)

    collect(root, 0)

    windows = [_window(span, clock) for _, span in rows]
    bounded = [w for w in windows if w is not None]
    title = _label(root, 0, clock)
    if not bounded:
        return f"{title}: no {clock}-clock data recorded"
    t0 = min(w[0] for w in bounded)
    t1 = max(w[1] for w in bounded)
    span_total = (t1 - t0) or 1.0
    labels = [_label(span, depth, clock) for depth, span in rows]
    label_width = max(len(label) for label in labels)
    unit, origin = ("s", 0.0) if clock == "sim" else ("s wall", t0)

    lines = [
        f"{title} timeline ({clock} clock, "
        f"{t0 - origin:.1f}{unit} .. {t1 - origin:.1f}{unit})"
    ]
    for (_, span), label, window in zip(rows, labels, windows):
        label = label.ljust(label_width)
        if window is None:
            lines.append(f"{label} |{' ' * width}| (no {clock} data)")
            continue
        start, end = window
        lo = int((start - t0) / span_total * width)
        hi = int((end - t0) / span_total * width)
        lo = max(0, min(lo, width - 1))
        hi = max(lo, min(hi, width))
        bar = [" "] * width
        if hi == lo:
            bar[lo] = HALF_BLOCK
        else:
            for i in range(lo, hi):
                bar[i] = "█"
        for event in span.events:
            when = _event_time(event, clock)
            if when is None:
                continue
            index = int((when - t0) / span_total * width)
            if 0 <= index < width:
                bar[index] = "·"
        duration = end - start
        suffix = f"{duration:9.2f}{unit}"
        extras = []
        if span.events:
            extras.append(f"{len(span.events)} events")
        outcome = span.attributes.get("outcome")
        if outcome:
            extras.append(str(outcome))
        note = f"  ({', '.join(extras)})" if extras else ""
        lines.append(f"{label} |{''.join(bar)}| {suffix}{note}")
    return "\n".join(lines)


def summary_table(spans: list[Span], clock: str = "sim") -> str:
    """Aggregate a list of span trees into a per-name duration table."""
    totals: dict[str, list[float]] = {}
    event_counts: dict[str, int] = {}
    for root in spans:
        for span in root.walk():
            window = _window(span, clock)
            if window is not None:
                totals.setdefault(span.name, []).append(
                    window[1] - window[0]
                )
            event_counts[span.name] = (
                event_counts.get(span.name, 0) + len(span.events)
            )
    if not totals:
        return "(no spans)"
    header = (
        f"{'span':20s} {'count':>5s} {'total_s':>10s} "
        f"{'mean_s':>10s} {'events':>6s}"
    )
    lines = [header]
    for name in sorted(totals, key=lambda n: -sum(totals[n])):
        durations = totals[name]
        lines.append(
            f"{name:20s} {len(durations):5d} {sum(durations):10.2f} "
            f"{sum(durations) / len(durations):10.2f} "
            f"{event_counts.get(name, 0):6d}"
        )
    return "\n".join(lines)

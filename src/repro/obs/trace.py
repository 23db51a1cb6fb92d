"""One span model for the simulator and the live tier.

ElMem's interesting behaviour lives inside a migration: where the
dump -> fusecache -> import -> switch pipeline spent its time, which
(src, dst) pairs retried, and which faults landed mid-flight.  On the
live tier the same question crosses processes: which hop of a sampled
request, or which wire round trip of a migration phase, took the time.
One :class:`Tracer` per process records both as :class:`Span` s
carrying:

- ``trace_id`` / ``span_id`` / ``parent_id`` (hex, drawn from the
  tracer's seeded RNG), so spans recorded by different processes are
  stitched back into one tree per trace by :func:`build_trees`;
- the recording ``process``, attributes and point-in-time
  :class:`SpanEvent` s (retries, faults, flow failures);
- a **wall** window on ``time.time()``, comparable across processes on
  one host;
- an optional **sim** window (the experiment's modeled seconds): where
  the phase sits on the timeline the paper's figures plot.

A span is recorded -- appended to the tracer's one flat list -- when it
ends.  :meth:`Tracer.root` and :meth:`Span.child` always record; the
Master, the autoscaler and the scenario phases use them.  The request
path samples: :meth:`Tracer.start_trace` opens a root at
``sample_rate``, and :meth:`Tracer.start_span` joins a trace that is
already running, typically one whose :class:`TraceContext` arrived in a
``trace <trace_id> <span_id>`` wire frame.  Proxy, client and server
check ``sample_rate > 0`` before calling either.

When tracing is disabled the module-level :data:`NULL_TRACER` /
:data:`NULL_SPAN` singletons absorb every call as a no-op.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from random import Random
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError

#: Maximum accepted lengths for the hex ids in a ``trace`` wire frame.  Our
#: generator emits 16 hex chars; the caps leave headroom for W3C-style 128-bit
#: trace ids while still bounding hostile input.
TRACE_ID_MAX = 32
SPAN_ID_MAX = 16

_HEX_DIGITS = frozenset("0123456789abcdef")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The (trace_id, span_id) pair carried across a process boundary."""

    trace_id: str
    span_id: str

    def wire_prefix(self) -> bytes:
        """Render the ``trace`` framing line prepended to a wire request."""
        return f"trace {self.trace_id} {self.span_id}\r\n".encode("ascii")


def _valid_hex(token: str, max_len: int) -> bool:
    return 0 < len(token) <= max_len and all(ch in _HEX_DIGITS for ch in token)


def parse_trace_args(args: Sequence[str]) -> TraceContext | None:
    """Validate the arguments of a ``trace`` wire frame.

    Returns ``None`` for anything malformed: wrong arity, non-hex digits,
    uppercase (the wire format is lowercase-only), or oversized fields.
    Rejection is deterministic -- no partial parses.
    """
    if len(args) != 2:
        return None
    trace_id, span_id = args
    if not _valid_hex(trace_id, TRACE_ID_MAX):
        return None
    if not _valid_hex(span_id, SPAN_ID_MAX):
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


#: Ambient trace context for the current asyncio task.  ``ProxyServer`` sets
#: it around request dispatch; ``NodeClient`` reads it when writing to the
#: wire.  Context vars propagate through ``await`` within one task but not
#: across threads, so thread-bridged callers (live migration) pass contexts
#: explicitly instead.
CURRENT_CONTEXT: ContextVar[TraceContext | None] = ContextVar(
    "repro_live_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """Return the ambient :class:`TraceContext`, if any."""
    return CURRENT_CONTEXT.get()


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span (retry, fault, failure)."""

    name: str
    wall_s: float
    sim_s: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SpanEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            wall_s=float(data["wall_s"]),
            sim_s=data.get("sim_s"),
            attributes=dict(data.get("attributes") or {}),
        )


class Span:
    """One timed operation of one trace, recorded by one process."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "process",
        "attributes",
        "events",
        "children",
        "start_s",
        "end_s",
        "start_sim_s",
        "end_sim_s",
        "_tracer",
    )

    enabled = True

    def __init__(
        self,
        name: str,
        *,
        trace_id: str = "",
        span_id: str = "",
        parent_id: str | None = None,
        process: str = "repro",
        tracer: "Tracer | None" = None,
        start_s: float | None = None,
        sim_s: float | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.process = process
        self.attributes: dict[str, Any] = attributes if attributes is not None else {}
        self.events: list[SpanEvent] = []
        # Children opened in this process through child(); build_trees()
        # links spans read back from files.
        self.children: list[Span] = []
        self.start_s = time.time() if start_s is None else start_s
        self.end_s: float | None = None
        self.start_sim_s = sim_s
        self.end_sim_s: float | None = None
        self._tracer = tracer

    # -- recording -------------------------------------------------------

    @property
    def context(self) -> TraceContext:
        """The context a child in another process (or task) is handed."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def child(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> "Span":
        """Open a child span; the caller must :meth:`end` it."""
        span = self._tracer._open(  # type: ignore[union-attr]
            name, self.trace_id, self.span_id, None, sim_s, attributes
        )
        self.children.append(span)
        return span

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> SpanEvent:
        """Record a point-in-time event on this span."""
        record = SpanEvent(name, time.time(), sim_s, attributes)
        self.events.append(record)
        return record

    def set(self, **attributes: Any) -> None:
        """Merge attributes into the span."""
        self.attributes.update(attributes)

    def sim_window(self, start: float, end: float) -> None:
        """Pin the span to an explicit sim-clock interval.

        Planning computes modeled phase durations *after* doing the real
        work, so phase spans get their sim window assigned post hoc while
        their wall clock measured the actual computation.
        """
        self.start_sim_s = start
        self.end_sim_s = end

    def end(self, sim_s: float | None = None, end_s: float | None = None) -> None:
        """Close the span and record it with its tracer.

        Idempotent for the wall clock: only the first call stamps
        ``end_s`` (now, unless given) and records the span.
        """
        if sim_s is not None:
            self.end_sim_s = sim_s
        if self.end_s is None:
            self.end_s = time.time() if end_s is None else end_s
            if self._tracer is not None:
                self._tracer.spans.append(self)

    # -- reading ---------------------------------------------------------

    @property
    def ended(self) -> bool:
        """True once :meth:`end` has been called."""
        return self.end_s is not None

    @property
    def wall_s(self) -> float:
        """Wall-clock duration (up to now while still open)."""
        end = self.end_s if self.end_s is not None else time.time()
        return end - self.start_s

    @property
    def sim_s(self) -> float | None:
        """Sim-clock duration, when both endpoints were recorded."""
        if self.start_sim_s is None or self.end_sim_s is None:
            return None
        return self.end_sim_s - self.start_sim_s

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant (or self) with ``name``, depth-first order."""
        return [span for span in self.walk() if span.name == name]

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable flat form; children are linked by id."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "process": self.process,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "start_sim_s": self.start_sim_s,
            "end_sim_s": self.end_sim_s,
            "attributes": self.attributes,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (an unlinked span)."""
        span = cls(
            str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            process=str(data.get("process", "?")),
            start_s=float(data["start_s"]),
            sim_s=data.get("start_sim_s"),
            attributes=dict(data.get("attributes") or {}),
        )
        end_s = data.get("end_s")
        span.end_s = None if end_s is None else float(end_s)
        span.end_sim_s = data.get("end_sim_s")
        span.events = [SpanEvent.from_dict(event) for event in data.get("events", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.process}, trace={self.trace_id}, "
            f"children={len(self.children)}, events={len(self.events)})"
        )


class _NullSpan:
    """Absorbs every span operation when tracing is disabled."""

    __slots__ = ()

    enabled = False
    name = ""
    context = None
    attributes: dict[str, Any] = {}
    events: tuple = ()
    children: tuple = ()
    start_sim_s = None
    end_sim_s = None
    sim_s = None
    wall_s = 0.0
    ended = True

    def child(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> "_NullSpan":
        return self

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> None:
        return None

    def set(self, **attributes: Any) -> None:
        return None

    def sim_window(self, start: float, end: float) -> None:
        return None

    def end(self, sim_s: float | None = None, end_s: float | None = None) -> None:
        return None

    def walk(self):
        return iter(())

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list:
        return []


NULL_SPAN = _NullSpan()
"""Shared no-op span; safe to use as a default everywhere."""


class Tracer:
    """Seeded recorder of one process's spans and run-level events.

    One :class:`random.Random` draws both the sampling decisions and the
    ids, so a fixed ``seed`` yields the same trace stream for the same
    sequence of calls.
    """

    enabled = True

    def __init__(
        self, process: str = "repro", *, sample_rate: float = 0.0, seed: int = 0
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError(
                f"trace sample rate must be in [0, 1], got {sample_rate}"
            )
        self.process = process
        self.sample_rate = sample_rate
        self.spans: list[Span] = []
        self.events: list[SpanEvent] = []
        self._rng = Random(seed)

    def _new_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    def _open(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        start_s: float | None,
        sim_s: float | None,
        attributes: dict[str, Any],
    ) -> Span:
        return Span(
            name,
            trace_id=trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            process=self.process,
            tracer=self,
            start_s=start_s,
            sim_s=sim_s,
            attributes=attributes,
        )

    def root(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> Span:
        """Open a new trace (a migration, a scenario run); always recorded."""
        return self._open(name, self._new_id(), None, None, sim_s, attributes)

    def start_trace(self, name: str, **attributes: Any) -> Span | None:
        """Open a new trace at ``sample_rate``; ``None`` when not sampled."""
        if self.sample_rate <= 0.0:
            return None
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        return self.root(name, **attributes)

    def start_span(
        self,
        name: str,
        parent: TraceContext,
        *,
        start_s: float | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span joining ``parent``'s running trace; always recorded."""
        return self._open(
            name, parent.trace_id, parent.span_id, start_s, None, attributes
        )

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> SpanEvent:
        """Record a run-level event not tied to any span (e.g. an
        autoscaler decision or an injected fault)."""
        record = SpanEvent(name, time.time(), sim_s, attributes)
        self.events.append(record)
        return record

    @property
    def roots(self) -> list[Span]:
        """Recorded spans that opened a trace, in recording order."""
        return [span for span in self.spans if span.parent_id is None]

    def find_roots(self, name: str) -> list[Span]:
        """Recorded root spans with the given name."""
        return [span for span in self.roots if span.name == name]


class _NullTracer:
    """Absorbs every tracer operation when tracing is disabled."""

    __slots__ = ()

    enabled = False
    process = "null"
    sample_rate = 0.0
    spans: tuple = ()
    events: tuple = ()
    roots: tuple = ()

    def root(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> _NullSpan:
        return NULL_SPAN

    def start_trace(self, name: str, **attributes: Any) -> None:
        return None

    def start_span(
        self,
        name: str,
        parent: TraceContext,
        *,
        start_s: float | None = None,
        **attributes: Any,
    ) -> _NullSpan:
        return NULL_SPAN

    def event(
        self, name: str, sim_s: float | None = None, **attributes: Any
    ) -> None:
        return None

    def find_roots(self, name: str) -> list:
        return []


NULL_TRACER = _NullTracer()
"""Shared no-op tracer; the default wired into every component."""


def build_trees(spans: Iterable[Span]) -> list[Span]:
    """Link ``spans`` into trees by parent id; return the roots.

    Spans may come from any number of processes.  A span whose parent
    is not among them (its process's file is missing, or the parent was
    still open at export) becomes a root.  Roots and siblings are in
    wall-start order.  Every given span's ``children`` is rebuilt.
    """
    ordered = sorted(spans, key=lambda span: span.start_s)
    by_id = {(span.trace_id, span.span_id): span for span in ordered}
    roots: list[Span] = []
    for span in ordered:
        span.children = []
    for span in ordered:
        parent = by_id.get((span.trace_id, span.parent_id))
        if parent is None or parent is span:
            roots.append(span)
        else:
            parent.children.append(span)
    return roots

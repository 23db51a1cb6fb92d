"""Memcached ASCII (text) protocol server facade.

Wraps a :class:`~repro.memcached.node.MemcachedNode` behind the classic
text protocol, so the node can be driven exactly the way ``telnet 11211``
or a client library would drive real Memcached:

    set user:1 0 0 5\r\nhello\r\n        ->  STORED\r\n
    get user:1\r\n                       ->  VALUE user:1 0 5\r\nhello\r\nEND\r\n

Supported commands: ``get``/``gets`` (multi-key), ``set``/``add``/
``replace``/``append``/``prepend``/``cas``, ``delete``, ``incr``/``decr``,
``touch``, ``flush_all``, ``stats`` (+ ``stats slabs``, ``stats obs``),
``version``, ``quit`` -- the rows of :data:`repro.wire.COMMANDS` -- among
them the paper's custom migration commands (Section V-A1):

- ``ts_dump <class_id>`` -- the *timestamp dump*: one
  ``TS <rows> <bytes>`` block packing ``(key, last_access, size)`` for
  every item of one slab class in MRU order (:func:`repro.wire.ts_reply`),
  terminated by ``END`` (the value size lets a remote planner price
  data flows without fetching values);
- ``batch_import <mode> <rows> <bytes>`` -- the *batch import*: its
  body is one packed key-value block of ``rows`` records
  (:func:`repro.wire.pack_block`), installed via
  :meth:`~repro.memcached.node.MemcachedNode.import_steps`, answering
  ``IMPORTED <n>``.  A malformed block, a bad data trailer or a
  duplicate key aborts the whole batch with ``CLIENT_ERROR`` (nothing is
  imported);
- ``mig_export <bytes>`` -- the *data export* that feeds a remote batch
  import: its body is the keys joined by spaces; the reply is one
  ``ITEMS <rows> <bytes>`` block of the same layout as a
  ``batch_import`` body, holding every key still cached (evicted keys
  are silently skipped, mirroring
  :meth:`~repro.memcached.node.MemcachedNode.export_items`), then
  ``END``.  Unlike ``get``, the export does not touch MRU positions or
  timestamps, so hotness metadata survives the move.

Framing is :mod:`repro.wire`'s: :meth:`TextProtocolServer.feed` pushes
arbitrary byte chunks through a :class:`~repro.wire.RequestFramer` and
runs the ``_cmd_<verb>`` handler of every request they complete, so
arity, sizes and data trailers are already checked when a handler
runs.  :meth:`TextProtocolServer.feed_stepwise` is the same dispatch for
a live server: a chunk that completes a ``batch_import`` comes back as a
generator that checks the block, then decodes and applies one record
per step, which the server runs a slice at a time between other
connections' requests; :meth:`feed` drains it in one go.  ``exptime``
is interpreted as relative seconds (simulation time); Memcached's
30-day absolute-timestamp rule is not modeled.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Generator

from repro import wire
from repro.errors import WireProtocolError
from repro.memcached.node import MemcachedNode, drain
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.export import to_prometheus
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS
from repro.obs.trace import TraceContext
from repro.wire import BAD_FORMAT, CRLF

Handler = Callable[[str, list[str], Any], bytes]

Steps = Generator[None, None, bytes]
"""A reply computed a step at a time; returns the reply bytes."""


class TextProtocolServer:
    """Text-protocol handler for one Memcached node.

    Parameters
    ----------
    node:
        The node executing the commands.
    clock:
        Zero-argument callable returning the current simulation time;
        every operation is stamped with it.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When its metrics layer
        is enabled each dispatched command is timed into
        ``net_server_execute_seconds``; when its tracer samples requests
        (``sample_rate > 0``) an incoming ``trace <trace_id> <span_id>``
        framing line makes the next command record a ``server.<command>``
        span joined to the caller's trace.
    """

    def __init__(
        self,
        node: MemcachedNode,
        clock: Callable[[], float],
        telemetry: Telemetry | None = None,
    ) -> None:
        self.node = node
        self.clock = clock
        self.telemetry = telemetry or NULL_TELEMETRY
        self._framer = wire.RequestFramer()
        metrics = self.telemetry.metrics
        self._obs: bool = bool(getattr(metrics, "enabled", False))
        self._tracer: Any = self.telemetry.tracer
        self._traced = self._tracer.sample_rate > 0
        if self._obs:
            self._m_execute: Any = metrics.histogram(
                "net_server_execute_seconds",
                "Command execution time inside the protocol handler.",
                buckets=LATENCY_SECONDS_BUCKETS,
                node=node.name,
            )
        else:
            self._m_execute = None
        # Total seconds spent executing commands, so the owning server
        # can derive parse time as (feed wall time - execute delta).
        self.execute_seconds = 0.0

    @property
    def closed(self) -> bool:
        """True once the peer must be dropped (``quit``, over-long line)."""
        return self._framer.closed

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def feed(self, data: bytes) -> bytes:
        """Consume ``data`` and return the responses it completes."""
        responses = self.feed_stepwise(data)
        return responses if isinstance(responses, bytes) else drain(responses)

    def feed_stepwise(self, data: bytes) -> bytes | Steps:
        """:meth:`feed` for a server that keeps serving while it imports.

        Returns what :meth:`feed` returns, unless ``data`` completes a
        ``batch_import`` with a non-empty block: then a generator that
        decodes and applies its records one per step (see
        :meth:`~repro.memcached.node.MemcachedNode.import_steps`),
        answers the requests behind it, and returns the responses.  A
        chunk without an import takes no generator.
        """
        requests = self._framer.feed(data)
        responses: list[bytes] = []
        for verb, args, body, ctx in requests:
            if verb == "batch_import" and body:
                return self._stepwise(requests, responses)
            # Inlined _respond: this loop is the per-chunk hot path.
            if verb is None:
                responses.append(body)
                continue
            handler: Handler = getattr(self, "_cmd_" + verb)
            if self._obs or ctx is not None:
                responses.append(self._run_timed(handler, verb, args, body, ctx))
            else:
                responses.append(handler(verb, args, body))
        return b"".join(responses)

    def _stepwise(
        self, requests: list[wire.Request], responses: list[bytes]
    ) -> Steps:
        """Answer the rest of a chunk from its first ``batch_import`` on
        (``responses`` holds one reply per request before it), each
        import one record per step."""
        for verb, args, body, ctx in requests[len(responses):]:
            if verb == "batch_import" and body:
                steps = self._batch_import_steps(args, body)
                if self._obs or ctx is not None:
                    steps = self._timed_steps(verb, steps, ctx)
                responses.append((yield from steps))
            else:
                responses.append(self._respond(verb, args, body, ctx))
        return b"".join(responses)

    def _respond(
        self, verb: str | None, args: list[str], body: Any, ctx: TraceContext | None
    ) -> bytes:
        """The reply to one framed request (a rejection's is its body)."""
        if verb is None:
            return body
        handler: Handler = getattr(self, "_cmd_" + verb)
        if self._obs or ctx is not None:
            return self._run_timed(handler, verb, args, body, ctx)
        return handler(verb, args, body)

    def execute(self, command: str, payload: bytes | None = None) -> bytes:
        """One-shot helper: run a single command line (plus payload)."""
        return self.feed(wire.encode_line(command, payload))

    def _run_timed(
        self,
        handler: Handler,
        verb: str,
        args: list[str],
        body: Any,
        ctx: TraceContext | None,
    ) -> bytes:
        # live-path timing, not sim time
        start = time.perf_counter()  # repro: allow[REP001]
        try:
            return handler(verb, args, body)
        finally:
            self._observe(
                verb,
                time.perf_counter() - start,  # repro: allow[REP001]
                ctx,
            )

    def _timed_steps(
        self, verb: str, steps: Steps, ctx: TraceContext | None
    ) -> Steps:
        """``steps``, timed as :meth:`_run_timed` times a handler: one
        observation of the time spent inside them, not across the
        yields (other connections' turns)."""
        elapsed = 0.0
        try:
            while True:
                start = time.perf_counter()  # repro: allow[REP001]
                try:
                    next(steps)
                except StopIteration as done:
                    return done.value
                finally:
                    elapsed += time.perf_counter() - start  # repro: allow[REP001]
                yield
        finally:
            steps.close()
            self._observe(verb, elapsed, ctx)

    def _observe(
        self, verb: str, elapsed: float, ctx: TraceContext | None
    ) -> None:
        self.execute_seconds += elapsed
        if self._m_execute is not None:
            self._m_execute.observe(elapsed)
        if ctx is not None and self._traced:
            wall_end = time.time()  # repro: allow[REP001]
            span = self._tracer.start_span(
                f"server.{verb}",
                ctx,
                start_s=wall_end - elapsed,
                node=self.node.name,
            )
            span.end(end_s=wall_end)

    # ------------------------------------------------------------------
    # Storage commands
    # ------------------------------------------------------------------

    def _cmd_set(self, verb: str, args: list[str], payload: bytes) -> bytes:
        key = args[0]
        fields = wire.storage_fields(args)
        if fields is None:
            return BAD_FORMAT
        flags, exptime = fields
        now = self.clock()
        value = (flags, payload)
        size = len(payload)
        if verb == "set":
            stored = self.node.set(key, value, size, now, exptime=exptime)
            if not stored:
                return b"SERVER_ERROR object too large for cache" + CRLF
            return b"STORED" + CRLF
        if verb == "add":
            stored = self.node.add(key, value, size, now, exptime=exptime)
            return (b"STORED" if stored else b"NOT_STORED") + CRLF
        if verb == "replace":
            stored = self.node.replace(
                key, value, size, now, exptime=exptime
            )
            return (b"STORED" if stored else b"NOT_STORED") + CRLF
        if verb in ("append", "prepend"):
            existing = self.node.peek(key)
            if existing is None or existing.is_expired(now):
                return b"NOT_STORED" + CRLF
            old_flags, old_payload = existing.value
            merged = (
                old_payload + payload
                if verb == "append"
                else payload + old_payload
            )
            self.node.set(
                key, (old_flags, merged), len(merged), now
            )
            return b"STORED" + CRLF
        # cas
        try:
            token = int(args[4])
        except ValueError:
            return BAD_FORMAT
        outcome = self.node.cas(
            key, value, size, token, now, exptime=exptime
        )
        return {
            "stored": b"STORED",
            "exists": b"EXISTS",
            "not_found": b"NOT_FOUND",
        }[outcome] + CRLF

    _cmd_add = _cmd_replace = _cmd_append = _cmd_prepend = _cmd_cas = _cmd_set

    # ------------------------------------------------------------------
    # Retrieval / mutation commands
    # ------------------------------------------------------------------

    def _cmd_get(self, verb: str, keys: list[str], body: None) -> bytes:
        now = self.clock()
        with_cas = verb == "gets"
        chunks: list[bytes] = []
        for key in keys:
            value = self.node.get(key, now)
            if value is None:
                continue
            flags, payload = value
            item = self.node.peek(key) if with_cas else None
            cas = item.cas_id if item else None
            chunks.append(wire.value_block(key, flags, payload, cas))
        chunks.append(wire.END)
        return b"".join(chunks)

    _cmd_gets = _cmd_get

    def _cmd_delete(self, verb: str, args: list[str], body: None) -> bytes:
        deleted = self.node.delete(args[0])
        return (b"DELETED" if deleted else b"NOT_FOUND") + CRLF

    def _cmd_incr(self, verb: str, args: list[str], body: None) -> bytes:
        key = args[0]
        try:
            delta = int(args[1])
        except ValueError:
            return wire.BAD_DELTA
        now = self.clock()
        item = self.node.peek(key)
        if item is None or item.is_expired(now):
            return b"NOT_FOUND" + CRLF
        flags, payload = item.value
        try:
            current = int(payload)
        except ValueError:
            return (
                b"CLIENT_ERROR cannot increment or decrement "
                b"non-numeric value" + CRLF
            )
        if verb == "decr":
            delta = -delta
        updated = max(0, current + delta)
        new_payload = str(updated).encode("utf-8")
        self.node.set(key, (flags, new_payload), len(new_payload), now)
        return new_payload + CRLF

    _cmd_decr = _cmd_incr

    def _cmd_touch(self, verb: str, args: list[str], body: None) -> bytes:
        try:
            exptime = float(args[1])
        except ValueError:
            return BAD_FORMAT
        touched = self.node.touch_item(args[0], exptime, self.clock())
        return (b"TOUCHED" if touched else b"NOT_FOUND") + CRLF

    def _cmd_flush_all(self, verb: str, args: list[str], body: None) -> bytes:
        self.node.flush_all()
        return b"OK" + CRLF

    def _cmd_version(self, verb: str, args: list[str], body: None) -> bytes:
        return b"VERSION repro-1.4.25-elmem" + CRLF

    def _cmd_stats(self, verb: str, args: list[str], body: None) -> bytes:
        if args and args[0] == "slabs":
            return self._stats_slabs()
        if args and args[0] == "obs":
            return wire.obs_reply(to_prometheus(self.telemetry.metrics))
        stats = self.node.stats
        return wire.stats_reply(
            [
                ("curr_items", self.node.curr_items),
                ("bytes", self.node.used_bytes),
                ("limit_maxbytes", self.node.memory_bytes),
                ("cmd_get", stats.gets),
                ("cmd_set", stats.sets),
                ("get_hits", stats.get_hits),
                ("get_misses", stats.get_misses),
                ("delete_hits", stats.deletes),
                ("evictions", stats.evictions),
                ("expired_unfetched", stats.expired),
                ("import_merge_fallbacks", stats.import_merge_fallbacks),
            ]
        )

    def _stats_slabs(self) -> bytes:
        rows: list[tuple[str, int]] = []
        for slab_class in self.node.slabs.classes:
            if slab_class.pages == 0:
                continue
            cid = slab_class.class_id
            rows += [
                (f"{cid}:chunk_size", slab_class.chunk_size),
                (f"{cid}:chunks_per_page", slab_class.chunks_per_page),
                (f"{cid}:total_pages", slab_class.pages),
                (f"{cid}:used_chunks", slab_class.used_chunks),
                (f"{cid}:free_chunks", slab_class.free_chunks),
            ]
        rows.append(
            (
                "active_slabs",
                sum(1 for c in self.node.slabs.classes if c.pages),
            )
        )
        return wire.stats_reply(rows)

    # ------------------------------------------------------------------
    # Paper-custom migration commands (Section V-A1)
    # ------------------------------------------------------------------

    def _cmd_ts_dump(self, verb: str, args: list[str], body: None) -> bytes:
        try:
            class_id = int(args[0])
        except ValueError:
            return BAD_FORMAT
        if not 0 <= class_id < len(self.node.slabs.classes):
            return b"CLIENT_ERROR unknown slab class" + CRLF
        items = self.node.items_in_mru_order(class_id)
        return wire.ts_reply(
            [item.key for item in items],
            [item.last_access for item in items],
            [item.value_size for item in items],
        )

    def _cmd_batch_import(
        self, verb: str, args: list[str], block: bytes
    ) -> bytes:
        return drain(self._batch_import_steps(args, block))

    def _batch_import_steps(self, args: list[str], block: bytes) -> Steps:
        """The ``batch_import`` reply, one record decoded and applied per
        step; a bad block or a duplicate key is refused before any record
        is applied."""
        if args[0] not in wire.IMPORT_MODES:
            return wire.UNKNOWN_MODE
        try:
            columns = wire.read_block(int(args[1]), block, values=True)
        except (ValueError, WireProtocolError):
            return wire.BAD_BLOCK
        seen: set[str] = set()
        for key in columns.keys:
            if key in seen:
                return f"CLIENT_ERROR duplicate key in batch: {key}".encode() + CRLF
            seen.add(key)
        imported = yield from self.node.import_steps(
            columns.items(), mode=args[0], now=self.clock()
        )
        return f"IMPORTED {imported}".encode("utf-8") + CRLF

    def _cmd_mig_export(self, verb: str, args: list[str], body: bytes) -> bytes:
        try:
            keys = wire.read_keys(body)
        except WireProtocolError:
            return wire.BAD_BLOCK
        return wire.items_reply(self.node.export_items(keys))

"""Asyncio Memcached client: pooled connections, pipelined requests.

One :class:`NodeClient` talks to one live node.  A request is its wire
bytes plus the framing of its reply (both from :mod:`repro.wire`); a
batch of requests is written in a single ``write`` (request pipelining)
and the connection -- an :class:`asyncio.Protocol` -- feeds the replies
to :class:`~repro.wire.ReplyFramer` as their bytes arrive, resolving one
future per round trip.  A round trip that finds an idle connection and a
free pool slot awaits nothing but that future: the pool is a plain slot
count with a first-come queue, and each connection keeps one re-armed
deadline timer instead of arming one per round trip.  Failures --
connection refused/reset, a stalled server exceeding ``timeout_s``, a
connection closed mid-response -- are
retried with the bounded exponential backoff of
:class:`~repro.core.retry.RetryPolicy` on a fresh connection, and
surface as :class:`~repro.errors.TransportError` once the budget is
exhausted.  Protocol error lines
(``ERROR``/``CLIENT_ERROR``/``SERVER_ERROR``) are deterministic, so they
raise :class:`~repro.errors.WireProtocolError` immediately instead.

All ElMem migration commands are supported: ``ts_dump`` (timestamp
metadata + sizes), ``mig_export`` (full KV pairs without touching MRU
state), and ``batch_import`` (install with hotness metadata); each
carries its rows in one packed block (:func:`repro.wire.pack_block`).
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from typing import Any, Iterable, NamedTuple, Sequence, cast

from repro import wire
from repro.core.retry import RetryPolicy
from repro.errors import TransportError, WireProtocolError
from repro.memcached.node import MigratedItem
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS
from repro.obs.trace import TraceContext, current_context
from repro.wire import (
    EXPORT_BATCH_KEYS,
    GET_BATCH_KEYS,
    IMPORT_BATCH_RECORDS,
)

DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=3, base_backoff_s=0.05, max_backoff_s=1.0
)
"""Default transport retry: 3 attempts, 50 ms then 100 ms backoff."""


class _Conn(asyncio.Protocol):
    """One pooled connection: replies are parsed as their bytes arrive.

    At most one round trip is in flight.  It owns one future, resolved
    by :meth:`data_received` when the last pipelined reply completes,
    and a deadline.  The connection arms at most one timer, and only
    when a round trip starts while none is armed; deadlines only move
    later, so the timer it finds armed is never late.  When the timer
    fires it fails a round trip that is due, re-arms at the deadline of
    one that is not, and disarms on an idle connection -- a connection
    kept busy arms one timer per ``timeout_s``, not one per round trip.
    Whatever ends the connection's usefulness -- EOF, a lost socket, a
    timeout, a reply that does not parse, bytes nobody asked for -- sets
    :attr:`broken`, which the pool checks before handing the connection
    out again.
    """

    __slots__ = (
        "transport",
        "broken",
        "_loop",
        "_framer",
        "_waiter",
        "_deadline",
        "_timer",
        "_timer_at",
        "_lost",
    )

    transport: asyncio.Transport

    def __init__(self) -> None:
        self.broken = False
        self._loop = asyncio.get_running_loop()
        self._framer = wire.ReplyFramer()
        self._waiter: asyncio.Future[list[Any]] | None = None
        self._deadline = 0.0
        self._timer: asyncio.TimerHandle | None = None
        self._timer_at = math.inf  # when the armed timer fires
        self._lost = self._loop.create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)

    def data_received(self, data: bytes) -> None:
        waiter = self._waiter
        if waiter is None or waiter.done():
            self.broken = True  # nobody asked for these bytes
            return
        try:
            results = self._framer.feed(data)
        except WireProtocolError as exc:
            self._fail(exc)
            return
        if results is not None:
            if self._framer.unread:
                self.broken = True  # more than the batch's last reply
            self._waiter = None
            waiter.set_result(results)

    def eof_received(self) -> None:
        self._fail(EOFError("connection closed by peer"))

    def connection_lost(self, exc: Exception | None) -> None:
        self._fail(exc or EOFError("connection closed"))
        if not self._lost.done():
            self._lost.set_result(None)

    def _fail(self, exc: BaseException | type[BaseException]) -> None:
        self.broken = True
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(exc)

    def round_trip(
        self, data: bytes, framings: Sequence[str], deadline: float
    ) -> asyncio.Future[list[Any]]:
        """Write one pipelined batch; the future of its decoded replies,
        in order, failed with :class:`asyncio.TimeoutError` at
        ``deadline`` (loop time)."""
        self._waiter = waiter = self._loop.create_future()
        self._deadline = deadline
        self._framer.expect(framings)
        if deadline < self._timer_at:
            self._arm(deadline)
        self.transport.write(data)
        return waiter

    def _arm(self, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        # Called from a round trip or from the timer: on the loop thread.
        self._timer = asyncio.get_running_loop().call_at(when, self._expire)
        self._timer_at = when

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._timer_at = math.inf

    def _expire(self) -> None:
        fired_at = self._timer_at
        self._timer = None
        self._timer_at = math.inf
        waiter = self._waiter
        if waiter is None or waiter.done():
            return  # idle: stay disarmed until the next round trip
        if self._deadline <= fired_at:
            self._fail(asyncio.TimeoutError)
        else:
            self._arm(self._deadline)

    def abort(self) -> None:
        self._disarm()
        self.transport.abort()

    async def close(self) -> None:
        """Close and wait until the transport has let go of its socket."""
        self._disarm()
        self.transport.close()
        await self._lost


class _Request(NamedTuple):
    """Wire bytes plus the framing of the reply they will be answered with."""

    wire: bytes
    reply: str


def _call(verb: str, *args: str, body: bytes = b"") -> _Request:
    """One request of the command table: its bytes and its reply framing."""
    return _Request(
        wire.encode_request(verb, args, body),
        wire.COMMANDS[verb].reply_for(args),
    )


class NodeClient:
    """Pooled, pipelining asyncio client for one live Memcached node.

    Parameters
    ----------
    name:
        Node name, used for telemetry labels and error messages.
    host / port:
        The node server's TCP endpoint.
    pool_size:
        Maximum concurrently open connections.
    timeout_s:
        Wall-clock budget per attempt of a pipelined round trip: one
        deadline, taken once the attempt holds a pool slot, bounds the
        dial (if any) and the round trip together.
    retry:
        Transport retry schedule; backoffs are real ``asyncio.sleep``
        waits scaled by ``backoff_scale`` (tests shrink it).
    retry_seed:
        Seed for jittered retry policies
        (``RetryPolicy(jitter="decorrelated")``): give every client its
        own seed and simultaneous failures back off on decorrelated
        schedules instead of stampeding the backend in lockstep.
        Ignored by non-jittered policies.
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        pool_size: int = 2,
        timeout_s: float = 5.0,
        retry: RetryPolicy | None = None,
        backoff_scale: float = 1.0,
        retry_seed: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.pool_size = max(1, pool_size)
        self.timeout_s = timeout_s
        self.retry = retry or DEFAULT_CLIENT_RETRY
        self.backoff_scale = backoff_scale
        self.retry_seed = retry_seed
        # The pool: idle connections, slots in use (a slot is a
        # connection in use or being dialled) and the callers queued for
        # one, in arrival order.
        self._idle: deque[_Conn] = deque()
        self._busy = 0
        self._waiters: deque[asyncio.Future[None]] = deque()
        self._closed = False
        telemetry = telemetry or NULL_TELEMETRY
        metrics = telemetry.metrics
        self._m_requests = metrics.counter(
            "net_client_requests_total",
            "Pipelined round trips issued by live clients",
            node=name,
        )
        self._m_retries = metrics.counter(
            "net_client_retries_total",
            "Transport retries after timeouts or connection errors",
            node=name,
        )
        self._m_errors = metrics.counter(
            "net_client_transport_errors_total",
            "Requests abandoned after exhausting transport retries",
            node=name,
        )
        self._m_depth = metrics.histogram(
            "net_client_pipeline_depth",
            "Commands per pipelined round trip",
            node=name,
        )
        self._obs = bool(metrics.enabled)
        self._m_queue_wait = metrics.histogram(
            "net_client_queue_wait_seconds",
            "Time spent waiting for a pooled connection slot",
            buckets=LATENCY_SECONDS_BUCKETS,
            node=name,
        )
        self._m_round_trip = metrics.histogram(
            "net_client_roundtrip_seconds",
            "Wire round-trip time of successful pipelined batches",
            buckets=LATENCY_SECONDS_BUCKETS,
            node=name,
        )
        self._tracer = telemetry.tracer
        self._traced = telemetry.tracer.sample_rate > 0
        # Explicit trace context override for callers that bridge event
        # loops through threads (contextvars do not cross
        # run_coroutine_threadsafe); when set it wins over the ambient
        # CURRENT_CONTEXT.
        self.trace_context: TraceContext | None = None

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------

    async def _dial(self) -> _Conn:
        loop = asyncio.get_running_loop()
        _, conn = await loop.create_connection(_Conn, self.host, self.port)
        return conn

    def _pop_idle(self) -> _Conn | None:
        while self._idle:
            conn = self._idle.popleft()
            if not conn.broken:
                return conn
            conn.abort()
        return None

    async def _acquire(
        self, loop: asyncio.AbstractEventLoop
    ) -> tuple[_Conn, float]:
        """The slow way to a connection: queue for a slot (first come,
        first served), then reuse an idle connection or dial one.  The
        attempt's deadline starts once the slot is ours and bounds the
        dial as well as the round trip."""
        if self._busy < self.pool_size:
            self._busy += 1
        else:
            waiter: asyncio.Future[None] = loop.create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            except BaseException:
                if not waiter.cancelled():
                    self._free_slot()  # woken, then cancelled: pass it on
                raise
        try:
            deadline = loop.time() + self.timeout_s
            conn = self._pop_idle()
            if conn is None:
                conn = await asyncio.wait_for(
                    self._dial(), deadline - loop.time()
                )
            return conn, deadline
        except BaseException:
            self._free_slot()
            raise

    def _free_slot(self) -> None:
        """Hand the slot to the longest-queued caller, else return it."""
        waiters = self._waiters
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():  # a cancelled caller left its future
                waiter.set_result(None)
                return
        self._busy -= 1

    def _release(self, conn: _Conn) -> None:
        if self._closed or conn.broken:
            conn.abort()
        else:
            self._idle.append(conn)
        self._free_slot()

    def _discard(self, conn: _Conn) -> None:
        conn.abort()
        self._free_slot()

    async def close(self) -> None:
        """Close every pooled connection; in-flight requests finish."""
        self._closed = True
        while self._idle:
            await self._idle.popleft().close()

    # ------------------------------------------------------------------
    # Pipelined request execution with timeout + retry
    # ------------------------------------------------------------------

    async def _request(self, requests: list[_Request]) -> list[Any]:
        """Ship a pipelined batch; retry transport failures on a fresh
        connection per the retry policy."""
        if not requests:
            return []
        self._m_requests.inc()
        self._m_depth.observe(len(requests))
        # Deliberate: trace_context IS the explicit bridge override REP106
        # asks for; the ambient read only serves same-loop callers.
        ctx = self.trace_context or current_context()  # repro: allow[REP106]
        span = None
        prefix = b""
        if ctx is not None:
            if self._traced:
                span = self._tracer.start_span(
                    "client.rpc",
                    ctx,
                    node=self.name,
                    commands=len(requests),
                )
                ctx = span.context
            # The trace frame applies to the batch's first command; the
            # server consumes one context per dispatched command.
            prefix = ctx.wire_prefix()
        data = prefix + b"".join(request.wire for request in requests)
        framings = [request.reply for request in requests]
        loop = asyncio.get_running_loop()
        failures = 0
        try:
            while True:
                conn: _Conn | None = None
                try:
                    if self._obs:
                        wait_start = time.perf_counter()
                    # The common case -- a free slot and an idle
                    # connection -- takes both without awaiting.
                    if self._busy < self.pool_size:
                        conn = self._pop_idle()
                    if conn is not None:
                        self._busy += 1
                        deadline = loop.time() + self.timeout_s
                    else:
                        conn, deadline = await self._acquire(loop)
                    if self._obs:
                        self._m_queue_wait.observe(
                            time.perf_counter() - wait_start
                        )
                        rt_start = time.perf_counter()
                        results = await conn.round_trip(
                            data, framings, deadline
                        )
                        self._m_round_trip.observe(
                            time.perf_counter() - rt_start
                        )
                    else:
                        results = await conn.round_trip(
                            data, framings, deadline
                        )
                except WireProtocolError:
                    # Deterministic server-side rejection: the connection's
                    # remaining responses are unparseable, drop it, but do
                    # not retry the same doomed bytes.
                    if conn is not None:
                        self._discard(conn)
                    raise
                except (OSError, EOFError, asyncio.TimeoutError) as exc:
                    if conn is not None:
                        self._discard(conn)
                    failures += 1
                    if failures >= self.retry.max_attempts:
                        self._m_errors.inc()
                        if span is not None:
                            span.set(error=repr(exc))
                        raise TransportError(
                            f"node {self.name!r} at "
                            f"{self.host}:{self.port}: request failed after "
                            f"{failures} attempt(s): {exc!r}"
                        ) from exc
                    self._m_retries.inc()
                    await asyncio.sleep(
                        self.retry.backoff_s(failures, seed=self.retry_seed)
                        * self.backoff_scale
                    )
                except BaseException:
                    # Cancellation (e.g. a proxy fan-out losing the race)
                    # must not leak the pooled connection or its slot;
                    # the connection state is unknown, so drop it.
                    if conn is not None:
                        self._discard(conn)
                    raise
                else:
                    self._release(conn)
                    return results
        finally:
            if span is not None:
                span.set(retries=failures)
                span.end()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    async def _one(self, verb: str, *args: str, body: bytes = b"") -> Any:
        """Ship one request of the command table; its decoded reply."""
        return (await self._request([_call(verb, *args, body=body)]))[0]

    async def get(self, key: str) -> tuple[int, bytes] | None:
        """Routed ``get``; ``(flags, payload)`` or ``None`` on a miss."""
        return (await self._one("get", key)).get(key)

    async def get_many(
        self, keys: Iterable[str]
    ) -> list[tuple[int, bytes] | None]:
        """Pipelined multi-key ``get``: one value (or ``None``) per key."""
        keys = list(keys)
        requests = [
            _call("get", *keys[i : i + GET_BATCH_KEYS])
            for i in range(0, len(keys), GET_BATCH_KEYS)
        ]
        merged: dict[str, tuple[int, bytes]] = {}
        for values in await self._request(requests):
            merged.update(values)
        return [merged.get(key) for key in keys]

    async def set(
        self,
        key: str,
        payload: bytes,
        flags: int = 0,
        exptime: float = 0.0,
    ) -> bool:
        """``set``; True when stored."""
        reply = await self._one(
            "set", key, f"{flags}", f"{exptime}", body=payload
        )
        return reply == b"STORED"

    async def set_many(
        self, entries: Iterable[tuple[str, int, bytes]]
    ) -> int:
        """Pipelined ``set`` of ``(key, flags, payload)``; count stored."""
        requests = [
            _call("set", key, f"{flags}", "0", body=payload)
            for key, flags, payload in entries
        ]
        responses = await self._request(requests)
        return sum(1 for response in responses if response == b"STORED")

    async def delete(self, key: str) -> bool:
        """``delete``; True when the key existed."""
        return await self._one("delete", key) == b"DELETED"

    async def delete_many(self, keys: Iterable[str]) -> int:
        """Pipelined ``delete``; returns how many keys existed."""
        responses = await self._request(
            [_call("delete", key) for key in keys]
        )
        return sum(1 for response in responses if response == b"DELETED")

    async def incr(self, key: str, delta: int = 1) -> int | None:
        """``incr``; the new value, or ``None`` when the key is absent."""
        response = await self._one("incr", key, f"{delta}")
        return None if response == b"NOT_FOUND" else int(response)

    async def flush_all(self) -> None:
        """Drop every item on the node."""
        await self._one("flush_all")

    async def version(self) -> str:
        """The server's ``version`` banner."""
        return (await self._one("version")).decode("utf-8")

    async def stats(self) -> dict[str, int]:
        """``stats`` counters, parsed to integers."""
        raw = await self._one("stats")
        return {name: int(value) for name, value in raw.items()}

    async def stats_slabs(self) -> dict[str, int]:
        """``stats slabs`` rows, parsed to integers."""
        raw = await self._one("stats", "slabs")
        return {name: int(value) for name, value in raw.items()}

    async def stats_obs(self) -> str:
        """``stats obs``: the server process's Prometheus text page.

        Empty string when the server runs with metrics disabled.
        """
        entry = (await self._one("stats", "obs")).get("obs")
        return entry[1].decode("utf-8") if entry else ""

    async def execute(
        self, command: str, payload: bytes | None = None
    ) -> bytes:
        """One raw command; returns the verbatim response bytes."""
        request = _Request(wire.encode_line(command, payload), wire.SNIFFED)
        return (await self._request([request]))[0]

    # ------------------------------------------------------------------
    # ElMem migration commands
    # ------------------------------------------------------------------

    async def ts_dump(self, class_id: int) -> list[tuple[str, float, int]]:
        """The timestamp dump: ``(key, last_access, value_size)`` rows in
        MRU order for one slab class."""
        return await self._one("ts_dump", f"{class_id}")

    async def mig_export(
        self, keys: Iterable[str]
    ) -> list[MigratedItem]:
        """Fetch full KV pairs for ``keys`` without touching MRU state.

        Evicted keys are silently skipped, mirroring
        :meth:`~repro.memcached.node.MemcachedNode.export_items`.
        """
        keys = list(keys)
        requests = [
            _call("mig_export", body=" ".join(keys[i : i + EXPORT_BATCH_KEYS]).encode())
            for i in range(0, len(keys), EXPORT_BATCH_KEYS)
        ]
        exported: list[MigratedItem] = []
        for records in await self._request(requests):
            exported.extend(records)
        return exported

    async def batch_import(
        self, records: Iterable[MigratedItem], mode: str = "merge"
    ) -> int:
        """Install migrated pairs via ``batch_import``; count imported."""
        records = list(records)
        batches = [
            records[i : i + IMPORT_BATCH_RECORDS]
            for i in range(0, len(records), IMPORT_BATCH_RECORDS)
        ]
        requests = [
            _call("batch_import", mode, f"{len(batch)}", body=wire.items_payload(batch))
            for batch in batches
        ]
        imported = 0
        for response in await self._request(requests):
            if not response.startswith(b"IMPORTED "):
                raise WireProtocolError(
                    f"unexpected batch_import reply: {response!r}"
                )
            imported += int(response.split()[1])
        return imported

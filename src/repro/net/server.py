"""Asyncio TCP server fronting a live Memcached node, plus a harness.

:class:`NodeServer` listens on localhost and speaks the text protocol of
:class:`~repro.memcached.protocol.TextProtocolServer`.  Each accepted
connection is one :class:`Connection` protocol: ``data_received`` feeds
the chunk to the incremental parser -- fragmented commands, values split
across reads, and whole pipelined bursts all work -- and writes the
chunk's responses in one ``transport.write``.  A chunk that cannot be
answered at once *holds* its connection (see :class:`Connection`): a
``batch_import`` runs in steps
(:meth:`~repro.memcached.protocol.TextProtocolServer.feed_stepwise`),
returning to the event loop every :data:`STEP_BUDGET_S` of them, so gets
from other connections interleave with a long import instead of queueing
behind it.  Shutdown drains gracefully: the listener closes first, open
connections get their buffered responses flushed, and only stragglers
past the grace period are aborted.

Fault injection happens per received chunk: when a
:class:`~repro.faults.sockets.SocketFaultPolicy` is attached, the server
asks it for a disposition before parsing and either aborts the
connection (crash / failed flow) or holds the chunk back (stall /
throttle), which is how the client's timeout+retry path and the Master's
degrade-to-cold path are exercised over real sockets.

:class:`LiveClusterHarness` boots several node servers in one background
event loop with a shared wall-clock timeline, which is what the CLI, the
examples, and the live tests use to stand up a localhost cluster.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Awaitable, Callable, Iterable, TypeVar, Union, cast

from repro.check.loopcheck import create_sanitizer
from repro.errors import ConfigurationError
from repro.faults.sockets import SocketFaultPolicy
from repro.memcached.node import MemcachedNode
from repro.memcached.protocol import Steps, TextProtocolServer
from repro.net.runtime import EventLoopThread
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS

STEP_BUDGET_S = 0.001
"""Wall time a stepped command (a ``batch_import``) runs before the
server returns to the event loop.  Time, not a record count: a merge
record costs 1-1 000 us and a prepend record ~3 us.  Small, because a
pooled client connection gets at most one round trip per two loop turns:
on ``scale_in_warm`` a 1 ms budget kept every request within 50 ms of
its due time, while a 5 ms budget was no better than one unbroken
import."""

Reply = Union[bytes, Awaitable[bytes]]
"""A chunk's responses: ready now, or once awaited (a held chunk)."""


async def run_steps(steps: Steps) -> bytes:
    """Run a stepped reply to its end, returning to the event loop
    whenever :data:`STEP_BUDGET_S` has passed since its last turn.

    Cancelled at a turn, it closes ``steps``: the records applied so far
    stay, each one whole.
    """
    try:
        turn = time.perf_counter()
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value
            if time.perf_counter() - turn >= STEP_BUDGET_S:
                await asyncio.sleep(0)
                turn = time.perf_counter()
    finally:
        steps.close()


class Connection(asyncio.Protocol):
    """One accepted connection of a :class:`StreamListener`.

    Every received chunk goes to the listener's ``_respond``.  Ready
    responses (``bytes``) are written at once, in one ``transport.write``.
    Awaitable ones -- a stepped ``batch_import``, a fault-policy delay, a
    proxy command awaiting its router -- *hold* the connection: one task
    awaits them and writes them, and a chunk that arrives meanwhile is
    buffered, with reading paused, to be answered after them in order.
    Backpressure is the same switch: past the transport's write
    high-water mark reading pauses, and buffered chunks wait, until the
    buffer drains.  A peer that sends without reading therefore leaves
    at most the high-water mark plus one chunk's responses here.
    """

    __slots__ = (
        "listener", "state", "transport", "lost", "held", "_backlog",
        "_write_paused",
    )

    transport: asyncio.Transport

    def __init__(self, listener: StreamListener) -> None:
        self.listener = listener
        self.state = listener._state()
        self.lost: asyncio.Future[None] = (
            asyncio.get_running_loop().create_future()
        )
        self.held: asyncio.Task[None] | None = None
        self._backlog: deque[bytes] = deque()
        self._write_paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.listener._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.listener._connections.discard(self)
        self._backlog.clear()
        if not self.lost.done():
            self.lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        if self.held is None:
            self._serve(data)
        else:
            # Paused only now, not when the hold began: a client that
            # waits for each reply never costs the two selector updates.
            self._backlog.append(data)
            self.transport.pause_reading()

    def eof_received(self) -> bool | None:
        if self.held is None and not self._backlog:
            return None  # close once the written replies are flushed
        self._backlog.append(b"")  # hang up after the replies before it
        return True

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._serve_backlog()

    def _serve(self, chunk: bytes) -> None:
        reply = self.listener._respond(self, chunk)
        if isinstance(reply, bytes):
            self._send(reply)
            return
        held = asyncio.get_running_loop().create_task(self._hold(reply))
        self.listener._held.add(held)
        held.add_done_callback(self.listener._held.discard)
        self.held = held

    def _serve_backlog(self) -> None:
        """Answer buffered chunks in order until one holds or writing
        pauses; with none left, read again."""
        while not (
            self.held is not None
            or self._write_paused
            or self.transport.is_closing()
        ):
            if not self._backlog:
                self.transport.resume_reading()
                return
            chunk = self._backlog.popleft()
            if not chunk:
                self.transport.close()  # the peer's EOF
                return
            self._serve(chunk)

    def _send(self, reply: bytes) -> None:
        transport = self.transport
        if transport.is_closing():
            return  # dropped, stopped, or the peer is gone
        if reply:
            self.listener._write(transport, reply)
        if self.state.closed:
            transport.close()  # `quit`, or a line the framer refused

    async def _hold(self, reply: Awaitable[bytes]) -> None:
        try:
            self._send(await reply)
        except Exception:
            self.transport.abort()  # a reply that never comes must not hang
            raise
        finally:
            self.held = None
        self._serve_backlog()


_ListenerT = TypeVar("_ListenerT", bound="StreamListener")


class StreamListener:
    """Listener lifecycle shared by :class:`NodeServer` and the proxy.

    Binds ``host:port`` (port 0 picks a free one, read back from
    :attr:`port` after :meth:`start`) and serves each accepted
    connection with one :class:`Connection`.  A subclass supplies the
    per-connection state (``_state``, whose ``closed`` says when to
    hang up) and the per-chunk ``_respond``; it may time ``_write``.
    """

    def __init__(
        self, what: str, host: str, port: int, drain_grace_s: float
    ) -> None:
        self._what = what
        self.host = host
        self.port = port
        self.drain_grace_s = drain_grace_s
        self._server: asyncio.Server | None = None
        self._connections: set[Connection] = set()
        self._held: set[asyncio.Task[None]] = set()

    async def start(self: _ListenerT) -> _ListenerT:
        """Bind and start accepting connections; idempotent."""
        if self._server is None:
            self._server = await asyncio.get_running_loop().create_server(
                lambda: Connection(self), self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def endpoint(self) -> tuple[str, int]:
        """``(host, port)`` the listener is reachable at."""
        if self._server is None:
            raise ConfigurationError(f"{self._what} is not started")
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, drain open connections, then force-close.

        Closing a transport flushes its buffered responses, and an idle
        keep-alive connection (a pooled client) is gone at once.  A peer
        that does not read its responses is aborted after
        ``drain_grace_s``; held chunks are cancelled, their responses
        undeliverable.
        """
        server = self._server
        if server is None:
            return
        server.close()
        connections = list(self._connections)
        for conn in connections:
            conn.transport.close()
        lost = [conn.lost for conn in connections]
        if lost:
            await asyncio.wait(lost, timeout=self.drain_grace_s)
        for conn in connections:
            conn.transport.abort()
        held = list(self._held)
        for task in held:
            task.cancel()
        await asyncio.gather(*held, *lost, return_exceptions=True)
        await server.wait_closed()
        self._server = None

    def _state(self) -> Any:
        """Per-connection state with a ``closed`` flag."""
        raise NotImplementedError

    def _respond(self, conn: Connection, chunk: bytes) -> Reply:
        """The responses to one received chunk."""
        raise NotImplementedError

    def _write(self, transport: asyncio.Transport, reply: bytes) -> None:
        transport.write(reply)


class NodeServer(StreamListener):
    """One asyncio TCP listener wrapping one :class:`MemcachedNode`.

    Parameters
    ----------
    node:
        The node executing the commands.
    clock:
        Zero-argument timeline shared by every node of a cluster, so
        timestamps written through different servers stay comparable.
    host / port:
        Bind address; port 0 (the default) picks a free port, read back
        from :attr:`port` after :meth:`start`.
    fault_policy:
        Optional socket-layer fault schedule consulted once per chunk.
    drain_grace_s:
        How long :meth:`stop` waits for open connections to finish
        before aborting them.
    """

    def __init__(
        self,
        node: MemcachedNode,
        clock: Callable[[], float],
        host: str = "127.0.0.1",
        port: int = 0,
        fault_policy: SocketFaultPolicy | None = None,
        drain_grace_s: float = 2.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(
            f"server for node {node.name!r}", host, port, drain_grace_s
        )
        self.node = node
        self.clock = clock
        self.fault_policy = fault_policy
        telemetry = telemetry or NULL_TELEMETRY
        self.telemetry = telemetry
        metrics = telemetry.metrics
        self._obs = bool(metrics.enabled)
        self._m_conns = metrics.counter(
            "net_server_connections_total",
            "Connections accepted by live node servers",
            node=node.name,
        )
        self._m_drops = metrics.counter(
            "net_server_fault_drops_total",
            "Connections aborted by the socket fault policy",
            node=node.name,
        )
        self._m_bytes_in = metrics.counter(
            "net_server_bytes_received_total",
            "Request bytes received by live node servers",
            node=node.name,
        )
        self._m_bytes_out = metrics.counter(
            "net_server_bytes_sent_total",
            "Response bytes written by live node servers",
            node=node.name,
        )
        self._m_parse = metrics.histogram(
            "net_server_parse_seconds",
            "Protocol parse time per received chunk (feed minus execute)",
            buckets=LATENCY_SECONDS_BUCKETS,
            node=node.name,
        )
        self._m_write = metrics.histogram(
            "net_server_write_seconds",
            "Response transport.write time per chunk",
            buckets=LATENCY_SECONDS_BUCKETS,
            node=node.name,
        )

    def _state(self) -> TextProtocolServer:
        self._m_conns.inc()
        return TextProtocolServer(self.node, self.clock, telemetry=self.telemetry)

    def _respond(self, conn: Connection, chunk: bytes) -> Reply:
        self._m_bytes_in.inc(len(chunk))
        if self.fault_policy is not None:
            kind, delay = self.fault_policy.disposition(self.node.name)
            if kind == "drop":
                self._m_drops.inc()
                conn.transport.abort()
                return b""
            if kind == "delay" and delay > 0:
                return self._delayed(conn.state, chunk, delay)
        return self._execute(conn.state, chunk)

    async def _delayed(
        self, protocol: TextProtocolServer, chunk: bytes, delay: float
    ) -> bytes:
        await asyncio.sleep(delay)
        reply = self._execute(protocol, chunk)
        return reply if isinstance(reply, bytes) else await reply

    def _execute(self, protocol: TextProtocolServer, chunk: bytes) -> Reply:
        # Framing is all done inside feed_stepwise; a stepped import's
        # records are decoded in its steps, timed as execution.
        if self._obs:
            execute_before = protocol.execute_seconds
            feed_start = time.perf_counter()
            responses = protocol.feed_stepwise(chunk)
            feed_elapsed = time.perf_counter() - feed_start
            execute_delta = protocol.execute_seconds - execute_before
            self._m_parse.observe(max(0.0, feed_elapsed - execute_delta))
        else:
            responses = protocol.feed_stepwise(chunk)
        if isinstance(responses, bytes):
            return responses
        return run_steps(responses)

    def _write(self, transport: asyncio.Transport, reply: bytes) -> None:
        if self._obs:
            write_start = time.perf_counter()
            transport.write(reply)
            self._m_write.observe(time.perf_counter() - write_start)
        else:
            transport.write(reply)
        self._m_bytes_out.inc(len(reply))


class LiveClusterHarness:
    """A whole localhost cluster: N nodes, N servers, one event loop.

    Nodes share a single wall-clock timeline anchored at :meth:`start`,
    so ``last_access`` timestamps written through different servers are
    comparable during migration planning -- the live analogue of the
    simulator's global clock.

    The harness is synchronous on the outside (it owns an
    :class:`~repro.net.runtime.EventLoopThread`); pair it with
    :class:`~repro.net.cluster.LiveCluster` connected to
    :attr:`endpoints` to drive the nodes over TCP.

    Parameters
    ----------
    node_names:
        Every node to boot, including spares that start outside the
        ring; membership is the client side's (LiveCluster's) concern.
    memory_per_node:
        Cache bytes per node; nodes run the default slab geometry.
    fault_policy:
        Optional socket fault schedule shared by every server.
    port_base:
        When nonzero, node ``i`` listens on ``port_base + i`` (the
        ``repro serve`` mode); the default picks ephemeral ports.
    sanitize:
        Run the server loop under a
        :class:`~repro.check.loopcheck.LoopSanitizer` (asyncio debug
        mode, slow-callback findings, blocking-call trap); read the
        verdict from :attr:`sanitizer` after :meth:`stop`.
    """

    def __init__(
        self,
        node_names: Iterable[str],
        memory_per_node: int,
        host: str = "127.0.0.1",
        fault_policy: SocketFaultPolicy | None = None,
        drain_grace_s: float = 2.0,
        port_base: int = 0,
        telemetry: Telemetry | None = None,
        metrics: Any | None = None,
        sanitize: bool = False,
    ) -> None:
        names = list(node_names)
        if not names:
            raise ConfigurationError("harness needs at least one node")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        self._anchor = time.monotonic()
        self.clock: Callable[[], float] = (
            lambda: time.monotonic() - self._anchor
        )
        self.nodes: dict[str, MemcachedNode] = {
            name: MemcachedNode(name, memory_per_node, metrics=metrics)
            for name in names
        }
        self.servers: dict[str, NodeServer] = {
            name: NodeServer(
                node,
                self.clock,
                host=host,
                port=port_base + index if port_base else 0,
                fault_policy=fault_policy,
                drain_grace_s=drain_grace_s,
                telemetry=telemetry,
            )
            for index, (name, node) in enumerate(self.nodes.items())
        }
        self.sanitizer = create_sanitizer(sanitize)
        self.loop = EventLoopThread(
            name="live-harness", sanitizer=self.sanitizer
        )
        self._started = False

    @property
    def endpoints(self) -> dict[str, tuple[str, int]]:
        """``{node_name: (host, port)}`` for every started server."""
        return {
            name: server.endpoint for name, server in self.servers.items()
        }

    def start(self) -> "LiveClusterHarness":
        """Boot the loop thread and every node server; idempotent."""
        if self._started:
            return self
        self.loop.start()
        self._anchor = time.monotonic()
        for server in self.servers.values():
            self.loop.call(server.start(), timeout=10.0)
        self._started = True
        return self

    def stop(self) -> None:
        """Drain and stop every server, then the loop; idempotent."""
        if not self._started:
            return
        for server in self.servers.values():
            self.loop.call(server.stop(), timeout=30.0)
        self.loop.stop()
        self._started = False

    def stop_node(self, name: str) -> None:
        """Kill one node's listener; its cached data stays in memory.

        New connections get refused and pooled ones see EOF, which is
        how proxy/failover tests simulate a backend dying mid-traffic.
        Idempotent; :meth:`start_node` brings the listener back on the
        same port with the data intact (a warm restart).
        """
        if not self._started:
            raise ConfigurationError("harness is not started")
        self.loop.call(self.servers[name].stop(), timeout=30.0)

    def start_node(self, name: str) -> tuple[str, int]:
        """Restart a node's listener on its previous port."""
        if not self._started:
            raise ConfigurationError("harness is not started")
        server = self.servers[name]
        self.loop.call(server.start(), timeout=10.0)
        return server.endpoint

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "LiveClusterHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

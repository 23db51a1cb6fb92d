"""Asyncio TCP server fronting a live Memcached node, plus a harness.

:class:`NodeServer` listens on localhost and speaks the text protocol of
:class:`~repro.memcached.protocol.TextProtocolServer`.  The parser is
incremental, so the server simply feeds it whatever chunks the socket
delivers -- fragmented commands, values split across reads, and whole
pipelined bursts all work -- and writes each chunk's responses in a
single batched ``write``.  A ``batch_import`` runs in steps
(:meth:`~repro.memcached.protocol.TextProtocolServer.feed_stepwise`),
and the server returns to the event loop every :data:`STEP_BUDGET_S`
of them, so gets from other connections interleave with a long import
instead of queueing behind it.  Shutdown drains gracefully: the
listener closes first, open connections get their buffered responses
flushed, and only stragglers past the grace period are aborted.

Fault injection happens per received chunk: when a
:class:`~repro.faults.sockets.SocketFaultPolicy` is attached, the server
asks it for a disposition before parsing and either aborts the
connection (crash / failed flow) or sleeps (stall / throttle), which is
how the client's timeout+retry path and the Master's degrade-to-cold
path are exercised over real sockets.

:class:`LiveClusterHarness` boots several node servers in one background
event loop with a shared wall-clock timeline, which is what the CLI, the
examples, and the live tests use to stand up a localhost cluster.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Iterable, TypeVar

from repro.check.loopcheck import create_sanitizer
from repro.errors import ConfigurationError
from repro.faults.sockets import SocketFaultPolicy
from repro.memcached.node import MemcachedNode
from repro.memcached.protocol import Steps, TextProtocolServer
from repro.net.runtime import EventLoopThread
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS

RECV_CHUNK = 65536
"""Bytes per socket read."""

STEP_BUDGET_S = 0.001
"""Wall time a stepped command (a ``batch_import``) runs before the
server returns to the event loop.  Time, not a record count: a merge
record costs 1-1 000 us and a prepend record ~3 us.  Small, because a
pooled client connection gets at most one round trip per two loop turns:
on ``scale_in_warm`` a 1 ms budget kept every request within 50 ms of
its due time, while a 5 ms budget was no better than one unbroken
import."""


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


_ListenerT = TypeVar("_ListenerT", bound="StreamListener")


class StreamListener:
    """Listener lifecycle shared by :class:`NodeServer` and the proxy.

    Binds ``host:port`` (port 0 picks a free one, read back from
    :attr:`port` after :meth:`start`), runs the subclass's
    ``_serve_connection(reader, writer)`` once per accepted connection,
    and on :meth:`stop` drains: the listener closes first, open
    connections get ``drain_grace_s`` to finish, stragglers are
    cancelled.
    """

    def __init__(
        self, what: str, host: str, port: int, drain_grace_s: float
    ) -> None:
        self._what = what
        self.host = host
        self.port = port
        self.drain_grace_s = drain_grace_s
        self._server: asyncio.Server | None = None
        self._closing = False
        self._tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    async def start(self: _ListenerT) -> _ListenerT:
        """Bind and start accepting connections; idempotent."""
        if self._server is not None:
            return self
        self._closing = False
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
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
        """Stop accepting, drain open connections, then force-close."""
        server = self._server
        if server is None:
            return
        self._closing = True
        server.close()
        await server.wait_closed()
        # Closing the writers flushes buffered responses and makes
        # blocked reads return EOF, so idle keep-alive connections
        # (pooled clients) unwind without waiting out the grace period.
        for writer in list(self._writers):
            writer.close()
        if self._tasks:
            done, pending = await asyncio.wait(
                self._tasks, timeout=self.drain_grace_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._writers.add(writer)
        try:
            await self._serve_connection(reader, writer)
        except (OSError, EOFError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-request; nothing left to answer
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError


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
            "Response write+drain time per chunk",
            buckets=LATENCY_SECONDS_BUCKETS,
            node=node.name,
        )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._m_conns.inc()
        protocol = TextProtocolServer(
            self.node, self.clock, telemetry=self.telemetry
        )
        while not self._closing:
            chunk = await reader.read(RECV_CHUNK)
            if not chunk:
                return
            self._m_bytes_in.inc(len(chunk))
            if self.fault_policy is not None:
                kind, delay = self.fault_policy.disposition(self.node.name)
                if kind == "drop":
                    self._m_drops.inc()
                    transport = writer.transport
                    if transport is not None:
                        transport.abort()
                    return
                if kind == "delay" and delay > 0:
                    await asyncio.sleep(delay)
                    if self._closing:
                        return
            # Parsing is all done inside feed_stepwise: a stepped import's
            # records are framed before its first step runs.
            if self._obs:
                execute_before = protocol.execute_seconds
                feed_start = time.perf_counter()
                responses = protocol.feed_stepwise(chunk)
                feed_elapsed = time.perf_counter() - feed_start
                execute_delta = protocol.execute_seconds - execute_before
                self._m_parse.observe(max(0.0, feed_elapsed - execute_delta))
            else:
                responses = protocol.feed_stepwise(chunk)
            if not isinstance(responses, bytes):
                responses = await run_steps(responses)
            if responses:
                if self._obs:
                    write_start = time.perf_counter()
                    writer.write(responses)
                    self._m_bytes_out.inc(len(responses))
                    await writer.drain()
                    self._m_write.observe(time.perf_counter() - write_start)
                else:
                    writer.write(responses)
                    self._m_bytes_out.inc(len(responses))
                    await writer.drain()
            if protocol.closed:
                return  # `quit`, or a line the framer refused to buffer


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

"""Client-facing listener for the proxy tier, plus a full harness.

:class:`ProxyServer` accepts the same memcached text dialect
:class:`~repro.net.server.NodeServer` speaks, so any existing client
(including :class:`~repro.net.client.NodeClient`) can point at the proxy
instead of a node without changing a line.  Requests are framed by the
same :class:`~repro.wire.RequestFramer` the node uses and executed
through a :class:`~repro.proxy.router.ProxyRouter`, which is where
coalescing, hot-key replication, and circuit breaking happen; the
listener itself stays a thin protocol adapter.

Commands are handled sequentially per connection (the protocol is
request/response ordered) but concurrently *across* connections, which
is what lets the coalescer collapse a thundering herd of clients: a
chunk whose commands await the router holds its connection (see
:class:`~repro.net.server.Connection`) while other connections are
served.

Unlike a node server, the proxy never surfaces backend *transport*
trouble to a client: a dead backend degrades ``get`` to a miss and
``set`` to ``NOT_STORED``, so the client-visible stream stays error-free
while the fleet churns underneath -- the property the chaos suite
asserts.  A backend's deterministic ``CLIENT_ERROR``/``SERVER_ERROR``
(object too large for cache) is relayed as the client's own answer.

:class:`ProxyHarness` composes a backend
:class:`~repro.net.server.LiveClusterHarness` with a router and a proxy
listener on the backends' event loop, and is synchronous on the outside
like every other harness in the repo.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Iterable

from repro import wire
from repro.errors import ConfigurationError, WireProtocolError
from repro.faults.sockets import SocketFaultPolicy
from repro.net.server import (
    Connection,
    LiveClusterHarness,
    Reply,
    StreamListener,
)
from repro.obs import Telemetry, create_telemetry
from repro.obs.export import to_prometheus
from repro.obs.trace import CURRENT_CONTEXT, TraceContext
from repro.proxy.router import ProxyConfig, ProxyRouter
from repro.wire import BAD_FORMAT, CRLF

PROXY_VERSION = b"VERSION repro-proxy-1.0-elmem" + CRLF


class ProxyServer(StreamListener):
    """One asyncio TCP listener executing commands through a router.

    Parameters
    ----------
    router:
        The routing core; must live on the same event loop.
    host / port:
        Bind address; port 0 picks a free port, read back from
        :attr:`port` after :meth:`start`.
    drain_grace_s:
        How long :meth:`stop` waits for open connections to finish.
    """

    def __init__(
        self,
        router: ProxyRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_grace_s: float = 2.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__("proxy server", host, port, drain_grace_s)
        self.router = router
        telemetry = telemetry or router.telemetry
        metrics = telemetry.metrics
        self._m_conns = metrics.counter(
            "proxy_connections_total",
            "Client connections accepted by the proxy",
        )
        self._m_commands = metrics.counter(
            "proxy_commands_total", "Wire commands parsed by the proxy"
        )
        self._m_protocol_errors = metrics.counter(
            "proxy_protocol_errors_total",
            "Malformed client commands answered with an error line",
        )

    async def start(self) -> "ProxyServer":
        """Bind the router to this loop, then start accepting."""
        if self._server is None:
            self.router.bind_loop(asyncio.get_running_loop())
        return await super().start()

    async def stop(self) -> None:
        """Drain client connections, then close the router's backends."""
        if self._server is None:
            return
        await super().stop()
        await self.router.close()

    def _state(self) -> wire.RequestFramer:
        self._m_conns.inc()
        return wire.RequestFramer()

    def _respond(self, conn: Connection, chunk: bytes) -> Reply:
        """Answer a chunk's requests in order; from the first one that
        awaits the router on, the rest are answered in :meth:`_finish`."""
        requests = conn.state.feed(chunk)
        replies: list[bytes] = []
        for index, request in enumerate(requests):
            reply = self._execute(*request)
            if not isinstance(reply, bytes):
                return self._finish(reply, requests[index + 1 :], replies)
            replies.append(reply)
        return b"".join(replies)

    async def _finish(
        self,
        pending: Awaitable[bytes],
        requests: list[wire.Request],
        replies: list[bytes],
    ) -> bytes:
        replies.append(await pending)
        for request in requests:
            reply = self._execute(*request)
            replies.append(reply if isinstance(reply, bytes) else await reply)
        return b"".join(replies)

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    def _execute(
        self,
        verb: str | None,
        args: list[str],
        body: Any,
        trace_ctx: TraceContext | None,
    ) -> Reply:
        """Run one framed request: routed, answered locally, or refused."""
        self._m_commands.inc()
        if verb is None:
            self._m_protocol_errors.inc()
            return body  # the framer's refusal line
        handler = getattr(self, "_cmd_" + verb, None)
        if handler is None:
            self._m_protocol_errors.inc()
            return wire.ERROR
        if not wire.COMMANDS[verb].proxied:
            return handler(verb, args, body)
        return self._execute_routed(handler, verb, args, body, trace_ctx)

    async def _execute_routed(
        self,
        handler: Callable[[str, list[str], Any], Awaitable[bytes]],
        verb: str,
        args: list[str],
        body: Any,
        trace_ctx: TraceContext | None,
    ) -> bytes:
        """Run one backend-fanning command under a trace span.

        When the tracer samples requests, an incoming context
        (client-supplied ``trace`` frame) always joins its trace; without
        one the proxy is the trace root and the sampler decides.  The
        resulting context rides the ambient
        :data:`CURRENT_CONTEXT` so :class:`~repro.net.client.NodeClient`
        picks it up when it hits the backends.  A backend's
        deterministic rejection (object too large, non-numeric incr
        target) is the client's answer too.
        """
        tracer = self.router.telemetry.tracer
        span = None
        if tracer.sample_rate > 0:
            span = (
                tracer.start_trace(f"proxy.{verb}")
                if trace_ctx is None
                else tracer.start_span(f"proxy.{verb}", trace_ctx)
            )
        token = None
        if span is not None:
            token = CURRENT_CONTEXT.set(span.context)
        elif trace_ctx is not None:
            token = CURRENT_CONTEXT.set(trace_ctx)
        try:
            return await handler(verb, args, body)
        except WireProtocolError as exc:
            self._m_protocol_errors.inc()
            line = str(exc).encode("utf-8")
            if not line.startswith(wire.ERROR_PREFIXES):
                line = b"SERVER_ERROR " + line
            return line + CRLF
        finally:
            if token is not None:
                CURRENT_CONTEXT.reset(token)
            if span is not None:
                span.end()

    async def _cmd_get(self, verb: str, keys: list[str], body: None) -> bytes:
        # The proxy does not route cas tokens (replicated keys have
        # several); a zero token keeps gets parseable while making any
        # cas attempt through the proxy a clean miss.
        cas = 0 if verb == "gets" else None
        values = await self.router.get_many(keys)
        chunks = [
            wire.value_block(key, *value, cas)
            for key, value in zip(keys, values)
            if value is not None
        ]
        chunks.append(wire.END)
        return b"".join(chunks)

    _cmd_gets = _cmd_get

    async def _cmd_set(
        self, verb: str, args: list[str], payload: bytes
    ) -> bytes:
        fields = wire.storage_fields(args)
        if fields is None:
            self._m_protocol_errors.inc()
            return BAD_FORMAT
        flags, exptime = fields
        stored = await self.router.set(
            args[0], payload, flags=flags, exptime=exptime
        )
        return (b"STORED" if stored else b"NOT_STORED") + CRLF

    async def _cmd_delete(
        self, verb: str, args: list[str], body: None
    ) -> bytes:
        existed = await self.router.delete(args[0])
        return (b"DELETED" if existed else b"NOT_FOUND") + CRLF

    async def _cmd_incr(self, verb: str, args: list[str], body: None) -> bytes:
        try:
            delta = int(args[1])
        except ValueError:
            self._m_protocol_errors.inc()
            return wire.BAD_DELTA
        if verb == "decr":
            delta = -delta
        value = await self.router.incr(args[0], delta)
        if value is None:
            return b"NOT_FOUND" + CRLF
        return str(value).encode("utf-8") + CRLF

    _cmd_decr = _cmd_incr

    def _cmd_stats(self, verb: str, args: list[str], body: None) -> bytes:
        if args and args[0] == "obs":
            # The harness shares one registry between the proxy and its
            # in-process backends, so a single scrape covers the tier.
            return wire.obs_reply(to_prometheus(self.router.telemetry.metrics))
        return wire.stats_reply(sorted(self.router.stats_snapshot().items()))

    def _cmd_version(self, verb: str, args: list[str], body: None) -> bytes:
        return PROXY_VERSION

    async def _cmd_flush_all(
        self, verb: str, args: list[str], body: None
    ) -> bytes:
        await self.router.flush_all()
        return b"OK" + CRLF


class ProxyHarness:
    """Backends + router + proxy listener, synchronous on the outside.

    Boots a :class:`~repro.net.server.LiveClusterHarness` for the
    backend fleet, then a router and a :class:`ProxyServer` fronting
    them on the same event loop (:attr:`loop`).  Proxy and backends
    still talk over real sockets; one loop costs no parallelism, since
    the threads of one process share the GIL anyway, and it saves the
    GIL hand-off on every backend round trip.  Clients connect to
    :attr:`proxy_endpoint`; scale events go through :meth:`router`'s
    membership listener; backend failures are injected with
    :meth:`kill_backend` / :meth:`restart_backend`.

    Parameters
    ----------
    node_names:
        Backends to boot (all start on the proxy ring unless ``active``
        narrows it).
    memory_per_node:
        Bytes of cache per backend.
    active:
        Initial ring membership; defaults to every backend.
    config:
        Router tunables (:class:`~repro.proxy.router.ProxyConfig`).
    fault_policy:
        Optional socket fault schedule applied to the *backend* servers
        (the proxy's own listener is never faulted -- the point is that
        clients behind the proxy stay clean while backends misbehave).
    sanitize:
        Run the loop under a :class:`~repro.check.loopcheck.LoopSanitizer`
        (asyncio debug mode + blocking-call trap); read the verdict from
        :attr:`sanitizer` (``backends.sanitizer``) after :meth:`stop`.
    """

    def __init__(
        self,
        node_names: Iterable[str],
        memory_per_node: int,
        active: Iterable[str] | None = None,
        config: ProxyConfig | None = None,
        host: str = "127.0.0.1",
        proxy_port: int = 0,
        fault_policy: SocketFaultPolicy | None = None,
        drain_grace_s: float = 2.0,
        telemetry: Telemetry | None = None,
        sanitize: bool = False,
    ) -> None:
        self.telemetry = telemetry or create_telemetry()
        # Backends share the proxy's telemetry, so one `stats obs`
        # scrape of the proxy covers node servers and nodes too.
        self.backends = LiveClusterHarness(
            node_names,
            memory_per_node,
            host=host,
            fault_policy=fault_policy,
            drain_grace_s=drain_grace_s,
            telemetry=self.telemetry,
            metrics=self.telemetry.metrics,
            sanitize=sanitize,
        )
        self._active = list(active) if active is not None else None
        self._config = config
        self._host = host
        self._proxy_port = proxy_port
        self._drain_grace_s = drain_grace_s
        self.sanitizer = self.backends.sanitizer
        self.loop = self.backends.loop
        self.router: ProxyRouter | None = None
        self.server: ProxyServer | None = None
        self._started = False

    @property
    def proxy_endpoint(self) -> tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        if self.server is None:
            raise ConfigurationError("proxy harness is not started")
        return self.server.endpoint

    def start(self) -> "ProxyHarness":
        """Boot backends, router, and the proxy listener; idempotent."""
        if self._started:
            return self
        self.backends.start()
        self.router = ProxyRouter(
            self.backends.endpoints,
            active=self._active,
            config=self._config,
            telemetry=self.telemetry,
        )
        self.server = ProxyServer(
            self.router,
            host=self._host,
            port=self._proxy_port,
            drain_grace_s=self._drain_grace_s,
            telemetry=self.telemetry,
        )
        self.loop.call(self.server.start(), timeout=10.0)
        self._started = True
        return self

    def stop(self) -> None:
        """Stop the proxy, then the backends and the loop; idempotent.

        Teardown order matters: the listener stops taking new
        connections, then the router settles its background tasks and
        closes every pooled backend client *while the loop is still
        running* -- stopping the loop first would strand those pooled
        sockets open until garbage collection, which leaks fds across
        repeated setup/teardown cycles in one process (the regression
        ``tests/test_harness_teardown.py`` guards).
        """
        if not self._started:
            return
        if self.server is not None:
            self.loop.call(self.server.stop(), timeout=30.0)
        self.backends.stop()
        self._started = False

    def kill_backend(self, name: str) -> None:
        """Stop one backend's listener (data survives for restart)."""
        self.backends.stop_node(name)

    def restart_backend(self, name: str) -> tuple[str, int]:
        """Bring a killed backend's listener back on the same port."""
        return self.backends.start_node(name)

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "ProxyHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""Shared-nothing multi-process live cluster: one OS process per node.

:class:`~repro.net.server.LiveClusterHarness` runs every
:class:`~repro.net.server.NodeServer` on a single asyncio loop in a
single thread, so one core serves the whole "cluster" and no measured
throughput number means anything.  :class:`ProcessClusterHarness` keeps
the exact same synchronous surface (``endpoints`` / ``start`` / ``stop``
/ ``stop_node`` / ``start_node`` / context manager) but boots each node
in its own OS process, which is what lets the live tier absorb traffic
on every core and what an elastic-scaling benchmark has to run against.

Design points:

- **Spawn-safe entrypoint.**  Children are created with the ``spawn``
  start method (no inherited locks, sockets, or event loops); the child
  entrypoint :func:`_node_process_main` is a module-level function so it
  pickles by reference on every platform.
- **Readiness handshake.**  Each child binds its listener (port 0 picks
  a free port), then reports ``("ready", port)`` over a dedicated pipe;
  :meth:`start` blocks until every node has reported or the startup
  deadline passes.  Callers that want a wire-level proof can still round
  trip the ``version`` command -- the tests do.
- **Graceful drain.**  :meth:`stop` sends ``SIGTERM``; the child stops
  accepting, drains open connections through
  :meth:`~repro.net.server.NodeServer.stop`, and exits 0.  Stragglers
  are escalated to ``SIGKILL`` after a grace period so the harness never
  leaks orphan processes.
- **Crash detection.**  A watcher thread polls child liveness; an exit
  that was not requested is recorded in :attr:`crash_events`, reported
  through the ``on_crash`` hook, and -- with ``restart_crashed=True`` --
  healed by respawning a cold node on the same port.

Because the cache lives inside the node process, a process restart is
*cold* (the data is gone), unlike
:meth:`~repro.net.server.LiveClusterHarness.start_node`'s warm listener
restart; that is the honest shared-nothing failure model.

Nodes share a wall-clock timeline anchored at :meth:`start` (the anchor
is passed to every child), so ``last_access`` timestamps written through
different node processes stay comparable during migration planning.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError

STARTUP_TIMEOUT_S = 30.0
"""Wall-clock budget for the whole fleet to report ready.  A child
imports only the node's modules (~0.1 s) and binds; the budget leaves
room for a loaded machine."""

KILL_GRACE_S = 5.0
"""Extra seconds past ``drain_grace_s`` before SIGTERM escalates."""


@dataclass(frozen=True)
class _NodeSpec:
    """Everything a child process needs to boot its node server."""

    name: str
    memory_bytes: int
    host: str
    port: int
    drain_grace_s: float
    clock_anchor: float


@dataclass(frozen=True)
class CrashEvent:
    """One unexpected child exit observed by the watcher."""

    node: str
    pid: int
    exitcode: int | None
    restarted: bool


def _node_process_main(
    spec: _NodeSpec,
    conn: multiprocessing.connection.Connection,
) -> None:
    """Child entrypoint: serve one node until SIGTERM, then drain.

    Runs in a freshly spawned interpreter; must stay importable at
    module level (spawn pickles the function by reference).  Errors
    during startup are reported back over the pipe so the parent can
    raise a useful message instead of timing out.  Once the server has
    drained and said so, the process exits at once: interpreter
    teardown would only free the cache object by object, which kept a
    retired node alive ~25 ms past its drain.
    """
    import asyncio

    try:
        asyncio.run(_serve_node(spec, conn))
    except KeyboardInterrupt:  # parent SIGINT broadcast to the group
        pass
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


async def _serve_node(
    spec: _NodeSpec,
    conn: multiprocessing.connection.Connection,
) -> None:
    import asyncio

    from repro.memcached.node import MemcachedNode
    from repro.net.server import NodeServer

    node = MemcachedNode(spec.name, spec.memory_bytes)
    # time.time() is comparable across processes on one machine, which
    # is what keeps last_access timestamps from different node processes
    # on one planning timeline.
    clock: Callable[[], float] = lambda: time.time() - spec.clock_anchor
    server = NodeServer(
        node,
        clock,
        host=spec.host,
        port=spec.port,
        drain_grace_s=spec.drain_grace_s,
    )
    loop = asyncio.get_running_loop()
    stop_requested = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop_requested.set)
    try:
        await server.start()
    except OSError as exc:
        conn.send(("error", f"{spec.name}: bind failed: {exc!r}"))
        conn.close()
        return
    conn.send(("ready", server.port))
    try:
        await stop_requested.wait()
    finally:
        await server.stop()
        try:
            conn.send(("stopped", server.port))
        except (OSError, BrokenPipeError):
            pass  # parent already gone; nothing left to tell it
        conn.close()


class _NodeProcess:
    """Parent-side handle for one child node process."""

    __slots__ = ("spec", "process", "conn", "port", "stop_requested")

    def __init__(
        self,
        spec: _NodeSpec,
        process: Any,
        conn: multiprocessing.connection.Connection,
    ) -> None:
        self.spec = spec
        self.process = process
        self.conn = conn
        self.port: int | None = None
        # Set before any intentional shutdown so the watcher can tell a
        # requested exit from a crash.
        self.stop_requested = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def await_ready(self, deadline: float) -> int:
        """Block until the child reports readiness; returns its port."""
        remaining = deadline - time.monotonic()
        if not self.conn.poll(max(0.0, remaining)):
            raise ConfigurationError(
                f"node process {self.spec.name!r} (pid "
                f"{self.process.pid}) did not report ready in time"
            )
        message = self.conn.recv()
        if message[0] != "ready":
            raise ConfigurationError(
                f"node process {self.spec.name!r} failed to start: "
                f"{message[1]}"
            )
        self.port = int(message[1])
        return self.port

    def terminate(self, join_timeout_s: float) -> None:
        """SIGTERM -> graceful drain; escalate to SIGKILL stragglers."""
        self.stop_requested = True
        if not self.process.is_alive():
            self.process.join(timeout=1.0)
            return
        self.process.terminate()  # SIGTERM: the child drains and exits
        self.process.join(timeout=join_timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=KILL_GRACE_S)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.close()


class ProcessClusterHarness:
    """A live cluster with one OS process per node server.

    Drop-in for :class:`~repro.net.server.LiveClusterHarness` wherever
    the synchronous surface is consumed: :attr:`endpoints` feeds
    :class:`~repro.net.cluster.LiveCluster` (and therefore the
    unmodified :class:`~repro.core.master.Master`), the proxy tier, and
    the load generator, none of which can tell that every byte now
    crosses a process boundary.

    Parameters
    ----------
    node_names:
        Every node to boot, including spares outside the ring.
    memory_per_node:
        Cache bytes per node, as the in-process harness provisions it.
    port_base:
        When nonzero, node ``i`` listens on ``port_base + i``; the
        default lets each child pick a free port, read back through the
        readiness handshake.
    restart_crashed:
        When True the watcher respawns a crashed node (cold, same port).
    on_crash:
        Callback ``(CrashEvent) -> None`` invoked from the watcher
        thread after every detected crash (and after the restart, when
        one happens).  Must be thread-safe.
    poll_interval_s:
        Watcher polling period for crash detection.
    """

    def __init__(
        self,
        node_names: Iterable[str],
        memory_per_node: int,
        host: str = "127.0.0.1",
        drain_grace_s: float = 2.0,
        port_base: int = 0,
        restart_crashed: bool = False,
        on_crash: Callable[[CrashEvent], None] | None = None,
        poll_interval_s: float = 0.2,
    ) -> None:
        names = list(node_names)
        if not names:
            raise ConfigurationError("harness needs at least one node")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        self.node_names = names
        self.memory_per_node = memory_per_node
        self.host = host
        self.drain_grace_s = drain_grace_s
        self.port_base = port_base
        self.restart_crashed = restart_crashed
        self.on_crash = on_crash
        self.poll_interval_s = poll_interval_s
        self.crash_events: list[CrashEvent] = []
        # Final exit code of every reaped child (``stop`` fills this in;
        # 0 everywhere means every drain stayed graceful).
        self.exit_codes: dict[str, int | None] = {}
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: dict[str, _NodeProcess] = {}
        self._lock = threading.Lock()
        self._watcher: threading.Thread | None = None
        self._watch_stop = threading.Event()
        self._clock_anchor = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spec(self, name: str, port: int) -> _NodeSpec:
        return _NodeSpec(
            name=name,
            memory_bytes=self.memory_per_node,
            host=self.host,
            port=port,
            drain_grace_s=self.drain_grace_s,
            clock_anchor=self._clock_anchor,
        )

    def _spawn(self, spec: _NodeSpec) -> _NodeProcess:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_node_process_main,
            args=(spec, child_conn),
            name=f"repro-node-{spec.name}",
        )
        process.start()
        child_conn.close()  # the child holds its own copy
        return _NodeProcess(spec, process, parent_conn)

    def start(self) -> "ProcessClusterHarness":
        """Spawn every node process and wait for readiness; idempotent."""
        if self._started:
            return self
        self._clock_anchor = time.time()
        handles: dict[str, _NodeProcess] = {}
        try:
            for index, name in enumerate(self.node_names):
                port = self.port_base + index if self.port_base else 0
                handles[name] = self._spawn(self._spec(name, port))
            deadline = time.monotonic() + STARTUP_TIMEOUT_S
            for handle in handles.values():
                handle.await_ready(deadline)
        except BaseException:
            for handle in handles.values():
                handle.terminate(self.drain_grace_s + KILL_GRACE_S)
                handle.close()
            raise
        self._procs = handles
        self._started = True
        self._watch_stop.clear()
        self._watcher = threading.Thread(
            target=self._watch, name="proc-cluster-watcher", daemon=True
        )
        self._watcher.start()
        return self

    def stop(self) -> None:
        """SIGTERM-drain every node, reap stragglers; idempotent."""
        if not self._started:
            return
        self._watch_stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
            self._watcher = None
        with self._lock:
            handles = list(self._procs.items())
            self._procs = {}
            self._started = False
        for _, handle in handles:
            handle.stop_requested = True
            if handle.alive:
                handle.process.terminate()
        join_budget = self.drain_grace_s + KILL_GRACE_S
        for name, handle in handles:
            handle.process.join(timeout=join_budget)
            if handle.alive:
                handle.process.kill()
                handle.process.join(timeout=KILL_GRACE_S)
            self.exit_codes[name] = handle.process.exitcode
            handle.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def endpoints(self) -> dict[str, tuple[str, int]]:
        """``{node_name: (host, port)}`` for every running node."""
        with self._lock:
            if not self._started:
                raise ConfigurationError("process harness is not started")
            return {
                name: (self.host, handle.port)
                for name, handle in self._procs.items()
                if handle.port is not None
            }

    @property
    def pids(self) -> dict[str, int]:
        """``{node_name: child_pid}`` of the current fleet."""
        with self._lock:
            return {
                name: handle.process.pid
                for name, handle in self._procs.items()
                if handle.process.pid is not None
            }

    def is_alive(self, name: str) -> bool:
        """True while ``name``'s process is running."""
        with self._lock:
            handle = self._procs.get(name)
            return handle is not None and handle.alive

    # ------------------------------------------------------------------
    # Per-node control
    # ------------------------------------------------------------------

    def _handle(self, name: str) -> _NodeProcess:
        handle = self._procs.get(name)
        if handle is None:
            raise ConfigurationError(
                f"node {name!r} is not part of this harness"
            )
        return handle

    def stop_node(self, name: str) -> None:
        """Gracefully stop one node's process (drain, then exit)."""
        if not self._started:
            raise ConfigurationError("process harness is not started")
        with self._lock:
            handle = self._handle(name)
            handle.stop_requested = True
        handle.terminate(self.drain_grace_s + KILL_GRACE_S)

    def kill_node(self, name: str) -> None:
        """SIGKILL one node's process -- crash injection for tests.

        The exit is *not* marked as requested, so the watcher reports it
        as a crash (and heals it when ``restart_crashed`` is on).
        """
        if not self._started:
            raise ConfigurationError("process harness is not started")
        with self._lock:
            handle = self._handle(name)
        handle.process.kill()

    def start_node(self, name: str) -> tuple[str, int]:
        """Respawn a stopped/crashed node on its previous port (cold)."""
        if not self._started:
            raise ConfigurationError("process harness is not started")
        with self._lock:
            old = self._handle(name)
            if old.alive:
                raise ConfigurationError(f"node {name!r} is still running")
            port = old.port or 0
            old.process.join(timeout=1.0)
            old.close()
            handle = self._spawn(self._spec(name, port))
            self._procs[name] = handle
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        handle.await_ready(deadline)
        assert handle.port is not None
        return self.host, handle.port

    # ------------------------------------------------------------------
    # Crash watcher
    # ------------------------------------------------------------------

    def _watch(self) -> None:
        while not self._watch_stop.wait(self.poll_interval_s):
            crashed: list[tuple[str, _NodeProcess]] = []
            with self._lock:
                if not self._started:
                    return
                for name, handle in self._procs.items():
                    if handle.stop_requested or handle.alive:
                        continue
                    handle.stop_requested = True  # report each crash once
                    crashed.append((name, handle))
            for name, handle in crashed:
                handle.process.join(timeout=1.0)
                # Capture identity before any restart: start_node closes
                # this handle, after which pid/exitcode are unreadable.
                pid = handle.process.pid or -1
                exitcode = handle.process.exitcode
                restarted = False
                if self.restart_crashed:
                    try:
                        self.start_node(name)
                        restarted = True
                    except ConfigurationError:
                        restarted = False
                event = CrashEvent(
                    node=name,
                    pid=pid,
                    exitcode=exitcode,
                    restarted=restarted,
                )
                self.crash_events.append(event)
                if self.on_crash is not None:
                    self.on_crash(event)

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "ProcessClusterHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

"""Request routing for the proxy tier: breakers, coalescing, replication.

:class:`ProxyRouter` owns everything between the proxy's client-facing
listener and the backend fleet:

- a ketama ring over the *active* backends (the same
  :class:`~repro.hashing.ketama.ConsistentHashRing` the cluster facades
  use, so the proxy and the Master route identically);
- one pooled :class:`~repro.net.client.NodeClient` per backend, with a
  short jittered retry schedule seeded per backend;
- one :class:`~repro.proxy.breaker.CircuitBreaker` per backend: a dead
  backend fails fast, gets degrade to misses and sets to no-ops
  (``NOT_STORED``) instead of surfacing transport errors to clients;
- a :class:`~repro.proxy.coalesce.GetCoalescer` collapsing concurrent
  same-key fetches behind a single backend round trip;
- hot-key replication: a frequency detector promotes the top keys onto
  R extra backends, reads fan out first-hit-wins across the copies (so
  a dead primary is *invisible* for replicated keys), and writes
  invalidate every replica before acknowledging (write-through
  invalidation).

Every backend request goes through :meth:`ProxyRouter._call` (or
:meth:`ProxyRouter._guarded`, which asks the breaker first), so each
admitted request reports exactly one outcome to its breaker.

The router is also a membership-change consumer: hand
:meth:`membership_listener` to
:meth:`~repro.core.master.Master.subscribe_membership` and every
post-switch ring lands here thread-safely, so scale events happen behind
a stable client surface.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.retry import RetryPolicy
from repro.errors import (
    ConfigurationError,
    MembershipError,
    TransportError,
    WireProtocolError,
)
from repro.hashing.hashutil import hash32
from repro.hashing.ketama import ConsistentHashRing
from repro.net.client import NodeClient
from repro.obs import Telemetry, create_telemetry, current_context
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS
from repro.proxy.breaker import STATE_CODES, CircuitBreaker
from repro.proxy.coalesce import GetCoalescer
from repro.proxy.hotkeys import HotKeyDetector, ReplicaRegistry

Value = tuple[int, bytes]
"""Wire values are ``(flags, payload)`` pairs, as NodeClient returns."""

DEFAULT_PROXY_RETRY = RetryPolicy(
    max_attempts=2,
    base_backoff_s=0.02,
    max_backoff_s=0.2,
    jitter="decorrelated",
)
"""Short, jittered backend retry: fail over to degradation quickly."""

BACKEND_POOL_SIZE = 4
"""Pooled connections per backend client."""


class _Degraded:
    """What a request its breaker rejected or its transport lost returns.

    Falsy, so a degraded ``set``/``delete`` reads as ``False``.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "DEGRADED"


DEGRADED = _Degraded()


@dataclass(frozen=True)
class ProxyConfig:
    """Tunables for one proxy instance.

    Parameters
    ----------
    replication_factor:
        Extra copies per promoted hot key (0 disables replication).
    max_hot_keys:
        Bound on simultaneously promoted keys.
    promote_threshold:
        Count at which :class:`~repro.proxy.hotkeys.HotKeyDetector`
        reports a key hot.
    failure_threshold / open_duration_s / close_after:
        Circuit-breaker knobs (see
        :class:`~repro.proxy.breaker.CircuitBreaker`).
    timeout_s / retry / backoff_scale:
        Backend client transport settings; the retry policy defaults to
        a short decorrelated-jitter schedule, seeded per backend.

    The proxy builds its ring from the member names alone, as the cluster
    facades do, so the proxy and the Master agree on key placement.
    """

    replication_factor: int = 1
    max_hot_keys: int = 8
    promote_threshold: int = 32
    failure_threshold: int = 3
    open_duration_s: float = 1.0
    close_after: int = 1
    timeout_s: float = 1.0
    retry: RetryPolicy | None = None
    backoff_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.replication_factor < 0:
            raise ConfigurationError("replication_factor must be >= 0")


class _Lead:
    """One key a ``get_many`` call fetches for itself and its followers."""

    __slots__ = (
        "primary",
        "replicas",
        "stamp",
        "primary_admitted",
        "fanned",
        "waiting",
        "missed",
    )

    def __init__(
        self, primary: str, replicas: tuple[str, ...], stamp: int | None
    ) -> None:
        self.primary = primary
        self.replicas = replicas
        self.stamp = stamp  # write stamp the read is valid under
        self.primary_admitted = False
        self.fanned = False
        self.waiting = 0  # candidate batches yet to answer
        self.missed: list[str] = []  # candidates that answered a miss


class _Fetch:
    """What one ``get_many`` call leads, shared with its backend batches."""

    __slots__ = ("leads", "batches", "admitted", "done", "start")

    def __init__(self, done: asyncio.Future, start: float) -> None:
        self.leads: dict[str, _Lead] = {}  # led keys not yet resolved
        self.batches: dict[str, list[str]] = {}  # backend -> keys to ask
        self.admitted: dict[str, bool] = {}  # one breaker verdict each
        self.done = done  # set when ``leads`` empties
        self.start = start


class ProxyRouter:
    """Routes client operations to backends with robustness mechanisms.

    Parameters
    ----------
    endpoints:
        ``{backend_name: (host, port)}`` for every reachable backend,
        including spares currently outside the ring.
    active:
        Backends initially on the ring; defaults to every endpoint.
    config:
        Robustness tunables (:class:`ProxyConfig`).
    telemetry:
        Metrics sink.  Unlike most components the default is an
        *enabled* registry, because breaker states, coalesce counters
        and route timings are the proxy's primary observable surface
        (the ``stats`` wire command reads them back); the router records
        into it unconditionally.
    """

    def __init__(
        self,
        endpoints: dict[str, tuple[str, int]],
        active: Iterable[str] | None = None,
        config: ProxyConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not endpoints:
            raise ConfigurationError("ProxyRouter needs at least one backend")
        self.config = config or ProxyConfig()
        self.telemetry = telemetry or create_telemetry()
        self._endpoints = dict(endpoints)
        names = sorted(active) if active is not None else sorted(endpoints)
        unknown = [name for name in names if name not in self._endpoints]
        if unknown:
            raise MembershipError(f"backends without endpoints: {unknown}")
        self.ring = ConsistentHashRing(names)
        self.clients: dict[str, NodeClient] = {}
        self.breakers: dict[str, CircuitBreaker] = {
            name: self._make_breaker(name) for name in self._endpoints
        }
        self.coalescer = GetCoalescer(self.telemetry)
        self.detector = HotKeyDetector(self.config.promote_threshold)
        self.replicas = ReplicaRegistry(
            max_hot_keys=self.config.max_hot_keys,
            telemetry=self.telemetry,
        )
        # Last-write stamp per key that is promoted or being promoted:
        # a copy made from a value read under an older stamp is void.
        # Stamps come from one counter so a re-created entry never
        # repeats a value an in-flight promotion may still hold.
        self._write_stamp: dict[str, int] = {}
        self._stamps = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._background: set[asyncio.Task] = set()
        self._closed = False
        metrics = self.telemetry.metrics
        self._m_ops = {
            op: metrics.counter(
                "proxy_requests_total", "Client operations routed", op=op
            )
            for op in ("get", "set", "delete", "incr")
        }
        self._m_degraded = {
            op: metrics.counter(
                "proxy_degraded_total",
                "Operations degraded to miss/no-op by breakers or dead "
                "backends",
                op=op,
            )
            for op in ("get", "set", "delete", "incr")
        }
        self._m_fanout = metrics.counter(
            "proxy_fanout_reads_total",
            "Replicated-key reads fanned out to several backends",
        )
        self._m_stale = metrics.counter(
            "proxy_stale_serves_total",
            "Replicated-key reads served while the primary was rejected "
            "by its breaker",
        )
        self._m_repairs = metrics.counter(
            "proxy_read_repairs_total",
            "Background replica refreshes after a fan-out miss",
        )
        self._m_switches = metrics.counter(
            "proxy_membership_switches_total",
            "Membership updates applied to the proxy ring",
        )
        self._m_members = metrics.gauge(
            "proxy_active_backends", "Backends currently on the proxy ring"
        )
        self._m_members.set(len(names))
        self._m_route = {
            op: metrics.histogram(
                "proxy_route_seconds",
                "End-to-end routing time per client operation",
                buckets=LATENCY_SECONDS_BUCKETS,
                op=op,
            )
            for op in ("get", "set", "delete", "incr")
        }
        self._m_fanout_seconds = metrics.histogram(
            "proxy_fanout_seconds",
            "Time to the first hit of a replicated-read fan-out",
            buckets=LATENCY_SECONDS_BUCKETS,
        )
        self._m_breaker_reject_seconds = metrics.histogram(
            "proxy_breaker_reject_seconds",
            "Time to degrade a get rejected by circuit breakers",
            buckets=LATENCY_SECONDS_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _make_breaker(self, name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name,
            failure_threshold=self.config.failure_threshold,
            open_duration_s=self.config.open_duration_s,
            close_after=self.config.close_after,
            telemetry=self.telemetry,
        )

    def client(self, name: str) -> NodeClient:
        """The (lazily created) pooled client for backend ``name``."""
        client = self.clients.get(name)
        if client is None:
            host, port = self._endpoints[name]
            client = NodeClient(
                name,
                host,
                port,
                pool_size=BACKEND_POOL_SIZE,
                timeout_s=self.config.timeout_s,
                retry=self.config.retry or DEFAULT_PROXY_RETRY,
                backoff_scale=self.config.backoff_scale,
                retry_seed=hash32(name),
                telemetry=self.telemetry,
            )
            self.clients[name] = client
        return client

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Pin the router to the event loop its coroutines run on."""
        self._loop = loop

    @property
    def active_members(self) -> frozenset[str]:
        return self.ring.members

    def primary_for(self, key: str) -> str:
        """The ring owner of ``key`` under current membership."""
        return self.ring.node_for_key(key)

    def _spawn(self, coro: Any) -> None:
        """Track a fire-and-forget task (read repair, fan-out losers)."""
        task = asyncio.get_running_loop().create_task(coro)
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    async def close(self) -> None:
        """Settle background tasks and close every backend client."""
        self._closed = True
        if self._background:
            await asyncio.gather(
                *list(self._background), return_exceptions=True
            )
        for client in self.clients.values():
            await client.close()

    # ------------------------------------------------------------------
    # Breaker-guarded backend primitives
    # ------------------------------------------------------------------

    async def _call(self, backend: str, op: str, *args: Any) -> Any:
        """Run client method ``op`` on a backend its breaker admitted.

        The breaker hears exactly one outcome.  A transport failure
        records a failure and returns :data:`DEGRADED` -- the breaker,
        not the client, decides when to stop trying.  Any reply records
        a success, an error line included: its
        :class:`~repro.errors.WireProtocolError` goes to the caller and
        no half-open probe slot leaks.
        """
        breaker = self.breakers[backend]
        try:
            result = await getattr(self.client(backend), op)(*args)
        except TransportError:
            breaker.record_failure()
            return DEGRADED
        except WireProtocolError:
            breaker.record_success()
            raise
        breaker.record_success()
        return result

    async def _guarded(self, backend: str, op: str, *args: Any) -> Any:
        """:meth:`_call` if ``backend``'s breaker admits it, else DEGRADED."""
        if not self.breakers[backend].allow():
            return DEGRADED
        return await self._call(backend, op, *args)

    async def _get_batch(
        self, backend: str, keys: list[str]
    ) -> list[Value | None]:
        """One ``get_many`` round trip to a backend its breaker admitted.

        The breaker hears one outcome per batch, however many keys it
        carries; a lost batch reads as a miss on every key.
        """
        try:
            values = await self._call(backend, "get_many", keys)
        finally:
            self._tag_rpc_span(len(keys))
        return [None] * len(keys) if values is DEGRADED else values

    def _tag_rpc_span(self, keys: int) -> None:
        """Stamp ``keys`` on the ``client.rpc`` span a batch just ended.

        ``NodeClient`` opens that span whenever a trace context is
        ambient and ends it before its awaiter resumes, so here it is
        the tracer's newest record -- ``repro.net`` needs no change for
        the proxy's batches to say how many keys they carried.
        """
        tracer = self.telemetry.tracer
        if tracer.sample_rate > 0 and current_context() is not None:
            tracer.spans[-1].set(keys=keys)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    async def get(self, key: str) -> Value | None:
        """Routed ``get``: a one-key :meth:`get_many`."""
        return (await self.get_many([key]))[0]

    async def get_many(self, keys: Sequence[str]) -> list[Value | None]:
        """Routed multiget: coalesced, replicated, breaker-degraded.

        One backend round trip per backend touched, not per key: the
        keys this call leads are grouped by candidate backend (the ring
        primary plus every replica of a promoted key, each if its
        breaker admits -- a hot key rides in more than one batch), one
        ``get_many`` per backend goes out concurrently, and a key
        resolves on the first *hit* from any candidate or as a miss
        once all of them have answered.  The call returns when its last
        key resolves.

        Never raises for backend trouble -- a dead or open backend reads
        as a miss (or is papered over by a replica for hot keys).
        """
        start = time.perf_counter()
        try:
            return await self._get_many_inner(keys)
        finally:
            self._m_route["get"].observe(time.perf_counter() - start)

    async def _get_many_inner(
        self, keys: Sequence[str]
    ) -> list[Value | None]:
        self._m_ops["get"].inc(len(keys))
        if not self.ring.members:
            self._m_degraded["get"].inc(len(keys))
            return [None] * len(keys)
        for key in keys:
            if (
                self.detector.observe(key)
                and self.config.replication_factor > 0
                and not self.replicas.replicas_for(key)
            ):
                await self._promote(key, self.ring.node_for_key(key))
        # No await from the first claim to the last batch spawned: every
        # key this call leads is in some batch before anyone can follow it.
        claims = [self.coalescer.claim(key) for key in keys]
        fetch = _Fetch(
            asyncio.get_running_loop().create_future(), time.perf_counter()
        )
        for key, (_, leads) in zip(keys, claims):
            if leads:
                self._plan(key, fetch)
        if fetch.leads:
            for backend, batch in fetch.batches.items():
                self._spawn(self._run_batch(backend, batch, fetch))
            # The batches, not this call, settle the shared futures, and
            # ``done`` is private: cancelling the call strands no
            # follower, and a batch that outlives it (a black-holed
            # primary behind a replica's hit) still reports to its
            # breaker from ``_background``.
            await fetch.done
        return [
            future.result()
            if future.done()
            else await self.coalescer.wait(future)
            for future, _ in claims
        ]

    def _plan(self, key: str, fetch: _Fetch) -> None:
        """Queue a led key on the batch of every backend that may hold it.

        ``fetch.admitted`` keeps each breaker's verdict for the call, so
        a breaker is consulted once per backend, never once per key.
        """
        primary = self.ring.node_for_key(key)
        replicas = self.replicas.replicas_for(key)
        lead = _Lead(primary, replicas, self._write_stamp.get(key))
        candidates: Iterable[str] = (primary,)
        if replicas:
            members = self.ring.members
            candidates = [
                backend
                for backend in dict.fromkeys((primary, *replicas))
                if backend in members
            ]
        admitted = fetch.admitted
        for backend in candidates:
            verdict = admitted.get(backend)
            if verdict is None:
                verdict = admitted[backend] = self.breakers[backend].allow()
            if verdict:
                fetch.batches.setdefault(backend, []).append(key)
                lead.waiting += 1
        if not lead.waiting:
            self._m_degraded["get"].inc()
            self._m_breaker_reject_seconds.observe(
                time.perf_counter() - fetch.start
            )
            self.coalescer.settle(key, None)
            return
        lead.primary_admitted = admitted[primary]
        if lead.waiting > 1:
            lead.fanned = True
            self._m_fanout.inc()
        fetch.leads[key] = lead

    async def _run_batch(
        self, backend: str, keys: list[str], fetch: _Fetch
    ) -> None:
        """One backend's share of a multiget; resolves what it decides."""
        leads = fetch.leads
        try:
            values = await self._get_batch(backend, keys)
            for key, value in zip(keys, values):
                lead = leads.get(key)
                if lead is None:
                    continue  # another candidate's hit already answered
                if value is None:
                    lead.missed.append(backend)
                    lead.waiting -= 1
                    if lead.waiting:
                        continue
                del leads[key]
                self._after_fetch(key, lead, value, fetch.start)
                self.coalescer.settle(key, value)
        except BaseException as exc:
            # Whatever ended the batch (a garbled reply, loop teardown),
            # every key still waiting on it is settled with that error,
            # so neither the leading call nor a follower hangs.
            for key in keys:
                if leads.pop(key, None) is not None:
                    self.coalescer.settle(key, error=exc)
            if not isinstance(exc, WireProtocolError):
                raise  # the callers raise a wire error, not this task
        finally:
            if not leads and not fetch.done.done():
                fetch.done.set_result(None)

    def _after_fetch(
        self, key: str, lead: _Lead, value: Value | None, start: float
    ) -> None:
        """Per-key epilogue: fan-out and stale accounting, read repair."""
        if lead.fanned:
            self._m_fanout_seconds.observe(time.perf_counter() - start)
        if value is None:
            return
        if not lead.primary_admitted:
            self._m_stale.inc()
        repair = [
            backend
            for backend in lead.missed
            if backend != lead.primary and backend in lead.replicas
        ]
        if repair:
            self._spawn(self._read_repair(key, repair, value, lead.stamp))

    async def _read_repair(
        self,
        key: str,
        backends: list[str],
        value: Value,
        stamp: int | None,
    ) -> None:
        """Refresh replicas that missed during a winning fan-out.

        ``value`` was read under write stamp ``stamp``; a write routed
        to ``key`` since then voids it, and a copy that landed after
        such a write is deleted again rather than left to be served.
        """
        flags, payload = value
        for backend in backends:
            if self._write_stamp.get(key) != stamp:
                return
            stored = await self._guarded(
                backend, "set", key, payload, flags, 0.0
            )
            if self._write_stamp.get(key) != stamp:
                await self._drop_copy(key, backend)
                return
            if stored:
                self._m_repairs.inc()

    # ------------------------------------------------------------------
    # Hot-key promotion
    # ------------------------------------------------------------------

    def _replica_targets(self, primary: str) -> tuple[str, ...]:
        """R distinct backends after ``primary`` in sorted member order."""
        members = sorted(self.ring.members)
        if len(members) < 2:
            return ()
        start = members.index(primary) if primary in members else 0
        targets = []
        for offset in range(1, len(members)):
            if len(targets) >= self.config.replication_factor:
                break
            candidate = members[(start + offset) % len(members)]
            if candidate != primary:
                targets.append(candidate)
        return tuple(targets)

    async def _promote(self, key: str, primary: str) -> None:
        """Copy a hot key onto its replica set and register it.

        One promotion per key at a time: the key's write stamp marks it
        as being promoted.  The copies are void if a write to ``key``
        was routed after the value was read
        (:meth:`_invalidate_replicas` moves the stamp): they are deleted
        again instead of registered.
        """
        if self.replicas.full or key in self._write_stamp:
            return
        targets = self._replica_targets(primary)
        if not targets or not self.breakers[primary].allow():
            return
        stamp = self._write_stamp[key] = next(self._stamps)
        copied: list[str] = []
        try:
            (value,) = await self._get_batch(primary, [key])
            if value is None:
                return
            flags, payload = value
            for backend in targets:
                if await self._guarded(backend, "set", key, payload, flags, 0.0):
                    copied.append(backend)
            if self._write_stamp.get(key) == stamp:
                self.replicas.promote(key, copied)
        finally:
            # An unmoved stamp is still this promotion's, so only it can
            # have registered the key.
            if self._write_stamp.get(key) != stamp or key not in self.replicas:
                if key not in self.replicas:
                    self._write_stamp.pop(key, None)
                for backend in copied:
                    await self._drop_copy(key, backend)

    async def _drop_copy(self, key: str, backend: str) -> None:
        """Delete ``key``'s copy on ``backend``; demote if it will not go.

        A delete that was rejected, lost or answered with an error line
        leaves the copy in doubt, so the key stops being served from
        replicas rather than risk serving it stale.
        """
        try:
            gone = await self._guarded(backend, "delete", key) is not DEGRADED
        except WireProtocolError:
            gone = False
        if not gone:
            self._demote(key)

    def _demote(self, key: str) -> None:
        """Stop serving ``key`` from replicas (and stop stamping it)."""
        self.replicas.demote(key)
        self._write_stamp.pop(key, None)

    # ------------------------------------------------------------------
    # Writes (write-through invalidation)
    # ------------------------------------------------------------------

    async def set(
        self,
        key: str,
        payload: bytes,
        flags: int = 0,
        exptime: float = 0.0,
    ) -> bool:
        """Routed ``set``; False (a no-op) when the owner is unreachable."""
        return bool(await self._write("set", key, payload, flags, exptime))

    async def delete(self, key: str) -> bool:
        """Routed ``delete``; False when degraded or absent."""
        return bool(await self._write("delete", key))

    async def incr(self, key: str, delta: int = 1) -> int | None:
        """Routed ``incr``; None when absent or degraded."""
        return await self._write("incr", key, delta)

    async def _write(self, op: str, key: str, *args: Any) -> Any:
        """Route write ``op`` to ``key``'s primary, then invalidate.

        Returns the client's answer, or None when the request was
        degraded (no ring, a rejecting breaker, a lost reply).  The
        key's replicas are invalidated *before* the call returns,
        whatever the primary's outcome -- a lost reply may still have
        been applied, and an error line says nothing about the copies
        -- so a read that follows a write is never served a stale
        replica copy.
        """
        start = time.perf_counter()
        self._m_ops[op].inc()
        try:
            outcome: Any = DEGRADED
            if self.ring.members:
                primary = self.ring.node_for_key(key)
                outcome = await self._guarded(primary, op, key, *args)
            if outcome is DEGRADED:
                self._m_degraded[op].inc()
                return None
            return outcome
        finally:
            await self._invalidate_replicas(key)
            self._m_route[op].observe(time.perf_counter() - start)

    async def _invalidate_replicas(self, key: str) -> None:
        """Write-through invalidation: drop every replica copy of ``key``.

        Runs after the owner has answered the write.  Moving the write
        stamp in the same step as reading the replica set also voids
        copies a promotion or read repair is still making from a value
        read earlier -- they are not registered yet, so not listed here.
        A copy that cannot be removed demotes the key.
        """
        if key in self._write_stamp:
            self._write_stamp[key] = next(self._stamps)
        for backend in self.replicas.replicas_for(key):
            await self._drop_copy(key, backend)

    async def flush_all(self) -> None:
        """Best-effort ``flush_all`` on every active backend."""
        try:
            for backend in sorted(self.ring.members):
                await self._guarded(backend, "flush_all")
        finally:
            self.replicas.clear()
            self._write_stamp.clear()

    # ------------------------------------------------------------------
    # Membership (the Master's post-switch ring lands here)
    # ------------------------------------------------------------------

    async def update_membership(self, members: Iterable[str]) -> None:
        """Swap the routing ring to ``members`` (known backends only)."""
        names = sorted(members)
        if not names:
            raise MembershipError("proxy membership cannot be empty")
        unknown = [name for name in names if name not in self._endpoints]
        if unknown:
            raise MembershipError(
                f"membership names unknown to the proxy: {unknown}"
            )
        rejoining = [name for name in names if name not in self.ring]
        self.ring = ConsistentHashRing(names)
        self.replicas.retain_backends(names)
        self._write_stamp = {
            key: stamp
            for key, stamp in self._write_stamp.items()
            if key in self.replicas
        }
        for name in rejoining:
            # A backend rejoining the ring deserves a fresh breaker
            # verdict rather than a stale open state; a retained one
            # keeps its verdict, open or closed.
            self.breakers[name].reset()
        self._m_switches.inc()
        self._m_members.set(len(names))

    def membership_listener(self) -> Callable[[Iterable[str]], None]:
        """A synchronous callback for
        :meth:`~repro.core.master.Master.subscribe_membership`.

        Safe to invoke from any thread; blocks until the proxy ring has
        switched, so the Master's post-switch world and the proxy's
        routing agree before the migration report returns.
        """

        def listener(members: Iterable[str]) -> None:
            loop = self._loop
            if loop is None:
                raise ConfigurationError(
                    "proxy router is not bound to a running event loop"
                )
            asyncio.run_coroutine_threadsafe(
                self.update_membership(list(members)), loop
            ).result(timeout=30.0)

        return listener

    # ------------------------------------------------------------------
    # Introspection (the `stats` wire command)
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict[str, int]:
        """Integer-valued proxy counters for the ``stats`` command."""
        metrics = self.telemetry.metrics
        snapshot: dict[str, int] = {
            "proxy_gets": int(self._m_ops["get"].value),
            "proxy_sets": int(self._m_ops["set"].value),
            "proxy_deletes": int(self._m_ops["delete"].value),
            "degraded_gets": int(self._m_degraded["get"].value),
            "degraded_sets": int(self._m_degraded["set"].value),
            "coalesce_leaders": int(
                metrics.counter("proxy_coalesce_leaders_total").value
            ),
            "coalesce_followers": int(
                metrics.counter("proxy_coalesce_followers_total").value
            ),
            "coalesce_inflight": self.coalescer.inflight,
            "fanout_reads": int(self._m_fanout.value),
            "stale_serves": int(self._m_stale.value),
            "read_repairs": int(self._m_repairs.value),
            "hot_keys": len(self.replicas),
            "active_backends": len(self.ring.members),
            "membership_switches": int(self._m_switches.value),
        }
        for name, breaker in sorted(self.breakers.items()):
            snapshot[f"breaker_state_{name}"] = STATE_CODES[breaker.state]
        return snapshot

"""The driver: one asyncio loop replaying a tape against the tier.

A *request* is what the paper's web tier does: route
:data:`~benchmarks.e2e.spec.KEYS_PER_REQUEST` keys on the ketama ring,
one pipelined ``NodeClient.get_many`` per node touched (parts awaited
together, so the slowest node sets the time), then cache-aside fill:
every miss is ``set`` back.  A *write request* ``set``s its keys.  Every
hit's payload is compared with the deterministic payload for its key.

All timing is ``perf_counter`` around the driver's own calls.  With a
:class:`~benchmarks.e2e.spans.SpanLog` the same calls are also recorded
as spans; without one the span branches cost one ``is None`` test.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, fields, replace
from typing import Awaitable, Callable, Iterable

from benchmarks.e2e.children import CLIENT_TIMEOUT_S
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.spec import WORKERS
from benchmarks.e2e.tape import Request
from repro.errors import TransportError, WireProtocolError
from repro.hashing.ketama import ConsistentHashRing
from repro.net.client import NodeClient

SEED_BATCH = 512
FAILED_S = 3600.0
"""Latency charged to a failed request: it misses any latency limit,
and stays a finite number the result line can carry."""
PROXY = "proxy"

Endpoints = dict[str, tuple[str, int]]


@dataclass
class Counts:
    """What the tier answered, summed over the requests of one section."""

    requests: int = 0
    failed: int = 0
    gets: int = 0
    hits: int = 0
    corrupt: int = 0
    sets: int = 0
    stored: int = 0

    def minus(self, earlier: "Counts") -> "Counts":
        return Counts(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def copy(self) -> "Counts":
        return replace(self)


class Tier:
    """Client side of the tier: node clients, the ring, and the counters.

    With ``proxy`` set every request goes to that one endpoint unrouted
    (the proxy routes); the node endpoints are then used for seeding only.
    """

    def __init__(
        self,
        endpoints: Endpoints,
        payloads: dict[str, bytes],
        proxy: tuple[str, int] | None = None,
    ) -> None:
        self.payloads = payloads
        self.nodes = {
            name: self._client(name, endpoint)
            for name, endpoint in endpoints.items()
        }
        self.ring = ConsistentHashRing(sorted(endpoints))
        self.proxy = self._client(PROXY, proxy) if proxy else None
        self.counts = Counts()
        # Per-node completion times, kept only when a run asks for them
        # (the open loop derives node.stall_max_ms from the gaps).
        self.completions: dict[str, list[float]] | None = None

    @staticmethod
    def _client(name: str, endpoint: tuple[str, int]) -> NodeClient:
        return NodeClient(
            name, *endpoint, pool_size=WORKERS, timeout_s=CLIENT_TIMEOUT_S
        )

    def client(self, name: str) -> NodeClient:
        return self.proxy if name == PROXY else self.nodes[name]

    def set_members(self, members: Iterable[str]) -> None:
        """Swap the routing ring (the post-switch membership)."""
        self.ring = ConsistentHashRing(sorted(members))

    async def close(self) -> None:
        for client in [*self.nodes.values(), self.proxy]:
            if client is not None:
                await client.close()

    # -- seeding ---------------------------------------------------------

    async def seed(self, keys: list[str]) -> None:
        """``set`` every key on its ring owner, in the given order."""
        payloads = self.payloads
        for start in range(0, len(keys), SEED_BATCH):
            batch = keys[start : start + SEED_BATCH]
            groups = self.ring.nodes_for_keys(batch)
            stored = await asyncio.gather(
                *(
                    self.nodes[owner].set_many(
                        [(key, 0, payloads[key]) for key in part]
                    )
                    for owner, part in groups.items()
                )
            )
            if sum(stored) != len(batch):
                raise RuntimeError(
                    f"seeding stored {sum(stored)} of {len(batch)} keys"
                )

    # -- the request -------------------------------------------------------

    def _groups(self, keys: list[str]) -> dict[str, list[str]]:
        if self.proxy is not None:
            return {PROXY: keys}
        return self.ring.nodes_for_keys(keys)

    async def _get_part(
        self,
        owner: str,
        part: list[str],
        log: SpanLog | None,
        parent: int | None,
        index: int,
    ) -> list[tuple[int, bytes] | None]:
        opened = log.open() if log is not None else None
        values = await self.client(owner).get_many(part)
        if log is not None:
            log.close(opened, "net.client.get_many", parent, index)
        if self.completions is not None:
            self.completions.setdefault(owner, []).append(time.perf_counter())
        return values

    async def _set_part(
        self,
        owner: str,
        part: list[str],
        log: SpanLog | None,
        parent: int | None,
        index: int,
    ) -> int:
        payloads = self.payloads
        opened = log.open() if log is not None else None
        stored = await self.client(owner).set_many(
            [(key, 0, payloads[key]) for key in part]
        )
        if log is not None:
            log.close(opened, "net.client.set_many", parent, index)
        return stored

    async def _set_groups(
        self,
        groups: dict[str, list[str]],
        log: SpanLog | None,
        parent: int | None,
        index: int,
    ) -> None:
        stored = await asyncio.gather(
            *(
                self._set_part(owner, part, log, parent, index)
                for owner, part in groups.items()
            )
        )
        counts = self.counts
        counts.sets += sum(len(part) for part in groups.values())
        counts.stored += sum(stored)

    async def request(
        self, index: int, request: Request, log: SpanLog | None = None
    ) -> tuple[int, int]:
        """Serve one request; returns its ``(hits, gets)``.

        Raises on a transport or protocol error.
        """
        is_write, keys = request
        outer = log.open() if log is not None else None
        parent = outer[0] if outer is not None else None
        try:
            routed = log.open() if log is not None else None
            groups = self._groups(keys)
            if log is not None and self.proxy is None:
                log.close(routed, "hashing.ketama.route", parent, index)
            if is_write:
                await self._set_groups(groups, log, parent, index)
                return 0, 0
            parts = await asyncio.gather(
                *(
                    self._get_part(owner, part, log, parent, index)
                    for owner, part in groups.items()
                )
            )
            counts = self.counts
            payloads = self.payloads
            hits = 0
            missing: dict[str, list[str]] = {}
            for (owner, part), values in zip(groups.items(), parts):
                for key, value in zip(part, values):
                    if value is None:
                        missing.setdefault(owner, []).append(key)
                    elif value[1] == payloads[key]:
                        hits += 1
                    else:
                        counts.corrupt += 1
            counts.gets += len(keys)
            counts.hits += hits
            if missing:
                fill = log.open() if log is not None else None
                await self._set_groups(
                    missing, log, fill[0] if fill is not None else None, index
                )
                if log is not None:
                    log.close(fill, "fill", parent, index)
            return hits, len(keys)
        finally:
            if log is not None:
                log.close(outer, "request", None, index)


REQUEST_ERRORS = (TransportError, WireProtocolError)


@dataclass
class ClosedLoopResult:
    """Per-request latencies plus the marks taken at segment boundaries."""

    latencies: list[float]
    # One mark per boundary, first request of each segment and the end:
    # (perf_counter, counts so far, whatever ``probe`` returned).
    marks: list[tuple[float, Counts, object]] = field(default_factory=list)


async def closed_loop(
    tier: Tier,
    requests: list[Request],
    workers: int,
    segment: int,
    probe: Callable[[], object],
    log: SpanLog | None = None,
    first_id: int = 0,
) -> ClosedLoopResult:
    """Replay ``requests``: each worker sends its next one on completion.

    A mark (time, counts, ``probe()``) is taken when the first request of
    every ``segment``-long stretch is claimed, and once more at the end,
    so segments are count-bound and their edges line up with the marks.
    Request ``i`` is recorded in spans under the id ``first_id + i``.
    """
    result = ClosedLoopResult([0.0] * len(requests))
    cursor = iter(range(len(requests)))
    counts = tier.counts
    clock = time.perf_counter

    async def worker() -> None:
        for index in cursor:
            if index % segment == 0:
                result.marks.append((clock(), counts.copy(), probe()))
            started = clock()
            try:
                await tier.request(first_id + index, requests[index], log)
            except REQUEST_ERRORS:
                counts.failed += 1
                result.latencies[index] = FAILED_S
            else:
                result.latencies[index] = clock() - started
            counts.requests += 1

    await asyncio.gather(*(worker() for _ in range(workers)))
    result.marks.append((clock(), counts.copy(), probe()))
    return result


@dataclass
class OpenLoopResult:
    """One open-loop run on the run's own timeline (seconds from start)."""

    due: list[float]
    response: list[float]  # completion minus due time; FAILED_S = failed
    lateness: list[float]  # actual send minus due time
    hits_gets: list[tuple[int, int]]  # per request
    origin: float = 0.0  # perf_counter at t = 0
    inflight_max: int = 0
    switched_at: float | None = None  # run time the ring was swapped


async def open_loop(
    tier: Tier,
    requests: list[Request],
    rate: float,
    trigger: int,
    on_trigger: Callable[[], None],
    switch: Callable[[], Awaitable[list[str]]],
    on_drained: Callable[[], None],
    log: SpanLog | None = None,
) -> OpenLoopResult:
    """Send request ``i`` at ``i / rate`` whatever the tier is doing.

    ``on_trigger`` runs just before request ``trigger`` is sent (it starts
    the scale-in).  ``switch`` resolves to the post-switch membership;
    the ring is swapped the moment it does, and ``on_drained`` runs once
    every request routed on the old ring has completed.
    """
    total = len(requests)
    result = OpenLoopResult(
        due=[index / rate for index in range(total)],
        response=[FAILED_S] * total,
        lateness=[0.0] * total,
        hits_gets=[(0, 0)] * total,
    )
    counts = tier.counts
    clock = time.perf_counter
    inflight: set[asyncio.Task[None]] = set()

    async def one(index: int, due_at: float) -> None:
        result.lateness[index] = clock() - due_at
        try:
            result.hits_gets[index] = await tier.request(
                index, requests[index], log
            )
        except REQUEST_ERRORS:
            counts.failed += 1
        else:
            result.response[index] = clock() - due_at
        counts.requests += 1

    async def follow_switch() -> None:
        members = await switch()
        old = set(inflight)
        tier.set_members(members)
        result.switched_at = clock() - result.origin
        if old:
            await asyncio.wait(old)
        on_drained()

    switcher = asyncio.create_task(follow_switch())
    result.origin = clock() + 0.05
    for index in range(total):
        due_at = result.origin + result.due[index]
        delay = due_at - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        if index == trigger:
            on_trigger()
        task = asyncio.create_task(one(index, due_at))
        inflight.add(task)
        task.add_done_callback(inflight.discard)
        if len(inflight) > result.inflight_max:
            result.inflight_max = len(inflight)
    if inflight:
        await asyncio.wait(set(inflight))
    await switcher
    return result

"""The open-loop dispatcher: fixed deadlines, recorded lateness.

:class:`LoadGenerator` replays a pre-built schedule (see
:mod:`repro.loadgen.schedule`) against live node endpoints.  The run is
**open loop**: deadlines were fixed when the tape was built and never
move.  The dispatcher sleeps until the next op's deadline, then takes
every op whose deadline has passed -- one *due wave* -- routes it on the
ketama ring, groups it per node, and ships it as pipelined
:class:`~repro.net.client.NodeClient` batches.  No op leaves before its
deadline, so lateness, response and service times are never negative.

Coordinated-omission discipline:

- the in-flight semaphore is acquired *before* the actual send time is
  stamped, so backpressure from a stalled backend shows up as recorded
  lateness on the ops it delayed -- late sends are counted, never
  rescheduled to a kinder deadline;
- ``response`` latency is measured from the *scheduled* send time, so a
  request that spent 2 s queued behind a stall is charged 2 s even
  though its own wire round trip was fast;
- ``service`` latency (actual send to completion) is recorded alongside,
  so the two can be compared to see where time went.

Membership is swappable mid-run (:meth:`LoadGenerator.set_membership`,
safe to call from another thread): the Master's post-switch membership
callback rebuilds the routing ring, which is how a scale-in under load
redirects traffic the moment the switch commits.  Errors are kept on a
timestamped timeline so the migration runner can compute the
``killed_at -> recovered_at`` degradation window.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Callable, Iterable

from repro.errors import ConfigurationError, TransportError, WireProtocolError
from repro.hashing.ketama import ConsistentHashRing
from repro.loadgen.report import LoadReport, quantiles_ms
from repro.loadgen.schedule import ScheduledOp, payload_for, tape_sha256
from repro.net.client import NodeClient
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS, Histogram

MAX_INFLIGHT = 32
"""Batches in flight at once, over all nodes; a send waits for a slot."""

LATE_THRESHOLD_S = 0.010
"""A send this far past its deadline counts as late."""


class LoadGenerator:
    """Open-loop driver over pipelined node clients.

    Build it with the target ``endpoints`` and the full ``schedule``,
    then run :meth:`run` on an event loop (typically an
    :class:`~repro.net.runtime.EventLoopThread` while a Master migrates
    on the calling thread).  Counters and histograms are mutated only
    on the generator's loop thread; other threads may read them after
    :meth:`run` returns, watch :attr:`started`, call :meth:`now`, or
    swap membership.
    """

    def __init__(
        self,
        endpoints: dict[str, tuple[str, int]],
        schedule: list[ScheduledOp],
        pool_size: int = 4,
        timeout_s: float = 5.0,
        key_observer: Callable[[list[str]], None] | None = None,
    ) -> None:
        if not endpoints:
            raise ConfigurationError("load generator needs endpoints")
        if not schedule:
            raise ConfigurationError("load generator needs a schedule")
        if any(
            later.send_at_s < earlier.send_at_s
            for earlier, later in zip(schedule, schedule[1:])
        ):
            raise ConfigurationError("schedule deadlines must not decrease")
        self.endpoints = dict(endpoints)
        self.schedule = schedule
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        # Control-plane key feed: called on the loop thread with each
        # dispatch wave's keys, in schedule order (the AutoScaler's
        # profiling window samples the live request stream through it).
        self.key_observer = key_observer
        self._ring = ConsistentHashRing(sorted(endpoints))
        self._tasks: set[asyncio.Task[None]] = set()
        self._clients: dict[str, NodeClient] = {}
        self._anchor = 0.0
        self.started = threading.Event()
        # Outcome counters (loop-thread writes only).
        self.ops_total = len(schedule)
        self.ops_sent = 0
        self.ops_ok = 0
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.transport_errors = 0
        self.wire_errors = 0
        self.late_sends = 0
        self.wall_seconds = 0.0
        # (run-time seconds, node) for every failed batch -- the
        # migration runner's recovery detector.
        self.error_timeline: list[tuple[float, str]] = []
        # Per-second accounting for soak curves (loop-thread writes).
        self._second_ok: dict[int, int] = {}
        self._second_errors: dict[int, int] = {}
        self._second_response: dict[int, Histogram] = {}
        self.response_hist = Histogram(
            "loadgen_response_seconds", LATENCY_SECONDS_BUCKETS
        )
        self.service_hist = Histogram(
            "loadgen_service_seconds", LATENCY_SECONDS_BUCKETS
        )
        self.lateness_hist = Histogram(
            "loadgen_lateness_seconds", LATENCY_SECONDS_BUCKETS
        )

    # ------------------------------------------------------------------
    # Cross-thread surface
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since the run started (valid from any thread)."""
        return time.perf_counter() - self._anchor

    def set_membership(self, members: Iterable[str]) -> None:
        """Swap the routing ring (thread-safe: one atomic rebind).

        Members must be a subset of the configured endpoints; the
        Master's ``subscribe_membership`` hook calls this with the
        post-switch member list so new traffic avoids retired nodes.
        """
        names = sorted(members)
        unknown = [name for name in names if name not in self.endpoints]
        if unknown:
            raise ConfigurationError(f"unknown members: {unknown}")
        self._ring = ConsistentHashRing(names)

    @property
    def members(self) -> frozenset[str]:
        """Current routing membership."""
        return self._ring.members

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Replay the whole tape; returns when every batch resolved."""
        self._clients = {
            name: NodeClient(
                name,
                host,
                port,
                pool_size=self.pool_size,
                timeout_s=self.timeout_s,
            )
            for name, (host, port) in self.endpoints.items()
        }
        inflight = asyncio.Semaphore(MAX_INFLIGHT)
        schedule = self.schedule
        total = len(schedule)
        start = 0
        self._anchor = time.perf_counter()
        self.started.set()
        try:
            while start < total:
                delay = schedule[start].send_at_s - self.now()
                if delay > 0:
                    # Check again on waking: a timer may fire a hair
                    # early, and no op may leave before its deadline.
                    await asyncio.sleep(delay)
                    continue
                now = self.now()
                end = start + 1
                while end < total and schedule[end].send_at_s <= now:
                    end += 1
                ops = schedule[start:end]
                start = end
                if self.key_observer is not None:
                    self.key_observer([op.key for op in ops])
                ring = self._ring  # one consistent ring per wave
                by_node: dict[str, list[ScheduledOp]] = {}
                for op in ops:
                    by_node.setdefault(
                        ring.node_for_key(op.key), []
                    ).append(op)
                for node, node_ops in by_node.items():
                    # Acquire BEFORE stamping the send: backpressure is
                    # recorded as lateness on the ops it delayed.
                    await inflight.acquire()
                    sent_at = self.now()
                    for op in node_ops:
                        lateness = sent_at - op.send_at_s
                        self.lateness_hist.observe(lateness)
                        if lateness > LATE_THRESHOLD_S:
                            self.late_sends += 1
                    task = asyncio.create_task(
                        self._dispatch(inflight, node, node_ops, sent_at)
                    )
                    self._tasks.add(task)
                    task.add_done_callback(self._tasks.discard)
            while self._tasks:
                await asyncio.gather(
                    *list(self._tasks), return_exceptions=True
                )
        finally:
            self.wall_seconds = self.now()
            for client in self._clients.values():
                await client.close()

    async def _dispatch(
        self,
        inflight: asyncio.Semaphore,
        node: str,
        ops: list[ScheduledOp],
        sent_at: float,
    ) -> None:
        """Ship one node's wave as pipelined batches; account outcomes."""
        client = self._clients[node]
        self.ops_sent += len(ops)
        try:
            sets = [op for op in ops if op.op == "set"]
            gets = [op for op in ops if op.op == "get"]
            if sets:
                # Await first, then increment: ``x += await ...`` loads
                # ``x`` before suspending, so concurrent dispatch tasks
                # would overwrite each other's counts.
                stored = await client.set_many(
                    (op.key, 0, payload_for(op.key, op.value_bytes))
                    for op in sets
                )
                self.stored += stored
            if gets:
                values = await client.get_many([op.key for op in gets])
                found = sum(1 for value in values if value is not None)
                self.hits += found
                self.misses += len(gets) - found
            done_at = self.now()
            for op in ops:
                # Charge each op to its *scheduled* second: the curve
                # then follows the tape deterministically, and only the
                # latency values inside a bucket measure the host.
                second = int(op.send_at_s)
                second_hist = self._second_response.get(second)
                if second_hist is None:
                    second_hist = Histogram(
                        f"loadgen_response_seconds_t{second}",
                        LATENCY_SECONDS_BUCKETS,
                    )
                    self._second_response[second] = second_hist
                response = done_at - op.send_at_s
                self.response_hist.observe(response)
                second_hist.observe(response)
                self.service_hist.observe(done_at - sent_at)
                self._second_ok[second] = (
                    self._second_ok.get(second, 0) + 1
                )
            self.ops_ok += len(ops)
        except (TransportError, WireProtocolError) as exc:
            if isinstance(exc, TransportError):
                self.transport_errors += len(ops)
            else:
                self.wire_errors += len(ops)
            failed_at = self.now()
            self.error_timeline.append((failed_at, node))
            second = int(failed_at)
            self._second_errors[second] = (
                self._second_errors.get(second, 0) + len(ops)
            )
        finally:
            inflight.release()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def per_second_series(self) -> list[dict[str, float | int | None]]:
        """Ops/s + latency quantiles for every whole second of the run.

        The soak workflow's curve source: one row per second with the
        completed-op count, failed-op count, and p50/p99 response
        latency (ms) of the ops that completed in that second.  Seconds
        with no completions still appear (zeros), so a stall shows as a
        hole in the curve rather than a skipped row.
        """
        seconds = set(self._second_ok) | set(self._second_errors)
        if not seconds:
            return []
        rows: list[dict[str, float | int | None]] = []
        for second in range(min(seconds), max(seconds) + 1):
            hist = self._second_response.get(second)
            rows.append(
                {
                    "t": second,
                    "ops_ok": self._second_ok.get(second, 0),
                    "errors": self._second_errors.get(second, 0),
                    "p50_ms": (
                        quantiles_ms(hist)["p50"] if hist else None
                    ),
                    "p99_ms": (
                        quantiles_ms(hist)["p99"] if hist else None
                    ),
                }
            )
        return rows

    def report(
        self,
        mode: str,
        offered_rate: float,
        duration_s: float,
        seed: int,
        trace: str | None = None,
    ) -> LoadReport:
        """Summarise the finished run as a :class:`LoadReport`."""
        wall = self.wall_seconds or self.now()
        return LoadReport(
            mode=mode,
            offered_rate=offered_rate,
            duration_s=duration_s,
            seed=seed,
            nodes=sorted(self.endpoints),
            ops_total=self.ops_total,
            ops_sent=self.ops_sent,
            ops_ok=self.ops_ok,
            hits=self.hits,
            misses=self.misses,
            stored=self.stored,
            transport_errors=self.transport_errors,
            wire_errors=self.wire_errors,
            late_sends=self.late_sends,
            achieved_rate=(
                round(self.ops_ok / wall, 3) if wall > 0 else 0.0
            ),
            wall_seconds=round(wall, 3),
            response_ms=quantiles_ms(self.response_hist),
            service_ms=quantiles_ms(self.service_hist),
            lateness_ms=quantiles_ms(self.lateness_hist),
            tape_sha256=tape_sha256(self.schedule),
            trace=trace,
            extras={"per_second": self.per_second_series()},
        )

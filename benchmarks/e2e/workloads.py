"""Running one workload: set-up, measured section, checks, teardown.

Two kinds of run exist for every workload.  The *end-to-end* run has
tracing off and produces the metrics a user of the tier would see.  The
*traced* run (one worker, a quarter of the requests) records spans
around the driver's calls, climbs the ladders, and produces the
per-layer metrics; the gap between its traced and untraced sections is
``trace.overhead_frac``.

Output checks are part of the run: a failed check marks the workload
invalid (``RunResult.correct`` is false) whatever the numbers say.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import multiprocessing.connection
import os
import time
from dataclasses import dataclass, field
from statistics import median
from pathlib import Path
from typing import Any

from benchmarks.e2e import ladder
from benchmarks.e2e.children import Child, ChildError, cpu_seconds, peak_rss_mb
from benchmarks.e2e.driver import (
    ClosedLoopResult,
    Counts,
    OpenLoopResult,
    Tier,
    closed_loop,
    open_loop,
)
from benchmarks.e2e.spans import SpanLog, self_time_by_name
from benchmarks.e2e.spec import (
    BUCKET_S,
    KEYS_PER_REQUEST,
    LADDER_REQUESTS_PER_S,
    MIB,
    OUTCOME_CODES,
    SEGMENTS,
    SETUP_REPEATS,
    SLOW_MS,
    WORKERS,
    WorkloadSpec,
)
from benchmarks.e2e.stats import degraded_seconds, iqr_spread, percentile
from benchmarks.e2e.tape import Tape, build_tape
from repro.memcached.node import MemcachedNode

OUT_DIR = Path(__file__).resolve().parent / "out"

TWIN_TOLERANCE = 0.02
"""Live ``post_hit_rate`` must sit this close to the in-process twin's."""

TRIGGER_AT = 0.4
"""Share of the open-loop run after which the scale-in is triggered: late
enough for a steady window with a p99 worth the name, early enough for
migration plus post window to fit."""

STEADY_CHUNK = 300
"""Requests per chunk of the open loop's steady window; like the closed
loop's segments, p50/p99 are taken per chunk and the median reported, so
one host hiccup cannot set the steady p99."""

LADDER_SPAN_TOLERANCE = 0.20
"""Agreement asked of the NodeClient rung and the get_many span medians."""


@dataclass
class Check:
    """One output check: what was verified and whether it held."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunResult:
    """Everything one run of one workload measured and verified."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    metrics: dict[str, float] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))


def plan_affinity() -> tuple[list[int] | None, list[int] | None]:
    """``(driver cpus, child cpus)``: the driver gets one core to itself.

    ``(None, None)`` when fewer than two cores are usable; the report
    then flags the run as unpinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[:1], cpus[1:]


# ---------------------------------------------------------------------------
# Set-up and teardown
# ---------------------------------------------------------------------------


class Bench:
    """One booted, seeded tier and the driver's handle on it."""

    def __init__(
        self, spec: WorkloadSpec, child: Child, tape: Tape, tier: Tier
    ) -> None:
        self.spec = spec
        self.child = child
        self.tape = tape
        self.tier = tier
        self.tape_build_s = 0.0
        self.seed_s = 0.0

    @property
    def setup_s(self) -> float:
        return self.child.boot_s + self.tape_build_s + self.seed_s

    def probe(self) -> tuple[float, float]:
        """``(driver CPU s, tier CPU s)`` used so far."""
        return (
            time.process_time(),
            sum(cpu_seconds(pid) for pid in self.child.pids),
        )

    async def wire_stats(self) -> dict[str, dict[str, int]]:
        """``stats`` of every node the ring still routes to."""
        members = sorted(self.tier.ring.members)
        stats = await asyncio.gather(
            *(self.tier.nodes[name].stats() for name in members)
        )
        return dict(zip(members, stats))

    async def close(self, result: RunResult | None = None) -> None:
        """Stop everything; record the hygiene checks on ``result``."""
        await self.tier.close()
        self.child.stop()
        left = self.child.leftovers()
        if result is not None:
            codes = self.child.exit_codes
            result.notes["exit_codes"] = dict(codes)
            result.check("no_child_outlives_run", not left, f"alive: {left}")
            result.check(
                "children_exit_clean",
                all(code == 0 for code in codes.values()),
                f"exit codes: {codes}",
            )
        elif left:
            raise ChildError(f"processes outlived their tier: {left}")


async def set_up(
    spec: WorkloadSpec, seed: int, requests: int, child_cpus: list[int] | None
) -> Bench:
    """Boot the child, build the tape, seed the tier."""
    child = Child(
        spec.topology,
        {"nodes": spec.nodes, "memory_per_node": spec.memory_per_node},
        child_cpus,
    )
    try:
        start = time.perf_counter()
        tape = build_tape(spec, seed, requests)
        built = time.perf_counter()
        tier = Tier(child.info["endpoints"], tape.payloads, child.info.get("proxy"))
        bench = Bench(spec, child, tape, tier)
        await tier.seed(tape.seed_order)
        bench.tape_build_s = built - start
        bench.seed_s = time.perf_counter() - built
    except BaseException:
        child.stop()
        raise
    return bench


async def set_up_repeatedly(
    spec: WorkloadSpec,
    seed: int,
    requests: int,
    child_cpus: list[int] | None,
    repeats: int,
) -> tuple[Bench, list[float]]:
    """Set up ``repeats`` times; keep the last tier, report every time."""
    times: list[float] = []
    for attempt in range(repeats):
        bench = await set_up(spec, seed, requests, child_cpus)
        times.append(bench.setup_s)
        if attempt < repeats - 1:
            await bench.close()
    return bench, times


def _setup_metrics(bench: Bench) -> dict[str, float]:
    return {
        "net.procs.boot_s": bench.child.boot_s,
        "seed_s": bench.seed_s,
        "tape_build_s": bench.tape_build_s,
    }


def _output_checks(result: RunResult, counts: Counts) -> None:
    result.attempted = counts.requests
    result.failed = counts.failed
    result.check("no_request_failed", counts.failed == 0, f"{counts.failed} failed")
    result.check(
        "hit_payloads_match", counts.corrupt == 0, f"{counts.corrupt} corrupt hits"
    )
    result.check(
        "stored_matches_sets",
        counts.stored == counts.sets,
        f"stored {counts.stored} of {counts.sets} sets",
    )


def _evictions(stats: dict[str, dict[str, int]]) -> int:
    return sum(node.get("evictions", 0) for node in stats.values())


def _eviction_check(result: RunResult, spec: WorkloadSpec, evictions: int) -> None:
    expected = spec.name == "write_evict"
    result.check(
        "evictions_as_designed",
        (evictions > 0) == expected,
        f"{evictions} evictions on {spec.name}",
    )


# ---------------------------------------------------------------------------
# Closed-loop workloads
# ---------------------------------------------------------------------------


def _segment_values(
    loop: ClosedLoopResult, segment: int
) -> dict[str, list[float]]:
    """Per measured segment (the first, warm-up, segment is dropped)."""
    values: dict[str, list[float]] = {
        "ops_per_s": [],
        "req_p50_ms": [],
        "req_p99_ms": [],
        "cpu_us_per_op": [],
        "driver_cpu_s": [],
        "sut_cpu_s": [],
        "wall_s": [],
    }
    ops = segment * KEYS_PER_REQUEST
    for index in range(1, len(loop.marks) - 1):
        (t0, _, (driver0, sut0)), (t1, _, (driver1, sut1)) = (
            loop.marks[index],
            loop.marks[index + 1],
        )
        latencies = loop.latencies[index * segment : (index + 1) * segment]
        values["ops_per_s"].append(ops / (t1 - t0))
        values["req_p50_ms"].append(percentile(latencies, 0.50) * 1e3)
        values["req_p99_ms"].append(percentile(latencies, 0.99) * 1e3)
        values["cpu_us_per_op"].append(
            ((driver1 - driver0) + (sut1 - sut0)) / ops * 1e6
        )
        values["driver_cpu_s"].append(driver1 - driver0)
        values["sut_cpu_s"].append(sut1 - sut0)
        values["wall_s"].append(t1 - t0)
    return values


def _hit_rate(later: Counts, earlier: Counts) -> float:
    delta = later.minus(earlier)
    return delta.hits / delta.gets if delta.gets else 0.0


async def closed_end_to_end(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    child_cpus: list[int] | None,
    setups: int,
) -> RunResult:
    """The untraced run of a closed-loop workload."""
    result = RunResult(spec.name, seed, seconds, traced=False)
    segment = max(20, round(spec.requests_per_s * seconds / SEGMENTS))
    bench, setup_times = await set_up_repeatedly(
        spec, seed, segment * (SEGMENTS + 1), child_cpus, setups
    )
    try:
        before = await bench.wire_stats()
        loop = await closed_loop(
            bench.tier, bench.tape.requests, WORKERS, segment, bench.probe
        )
        after = await bench.wire_stats()
        rss = sum(peak_rss_mb(pid) for pid in bench.child.pids)
    finally:
        await bench.close(result)

    per_segment = _segment_values(loop, segment)
    measured = loop.latencies[segment:]
    first, last_start, end = loop.marks[1][1], loop.marks[-2][1], loop.marks[-1][1]
    span = end.minus(first)
    result.metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": median(per_segment["ops_per_s"]),
        "req_p50_ms": median(per_segment["req_p50_ms"]),
        "req_p99_ms": median(per_segment["req_p99_ms"]),
        "cpu_us_per_op": median(per_segment["cpu_us_per_op"]),
        "hit_rate": _hit_rate(end, first),
        "sut_rss_mb": rss,
        "good_req_frac": sum(1 for t in measured if t <= SLOW_MS / 1e3)
        / len(measured),
        # Nothing is retired here, so the "post" phase is the last segment.
        "post_hit_rate": _hit_rate(end, last_start),
        "error_frac": span.failed / span.requests if span.requests else 1.0,
    }
    result.notes.update(
        tape_sha256=bench.tape.digest(),
        samples_per_segment=segment,
        segments=SEGMENTS,
        setup_times_s=setup_times,
        spread={
            name: iqr_spread(per_segment[name])
            for name in ("ops_per_s", "req_p50_ms", "req_p99_ms", "cpu_us_per_op")
        },
        per_segment=per_segment,
    )
    _output_checks(result, end)
    _eviction_check(result, spec, _evictions(after) - _evictions(before))
    return result


async def _proxy_stats(bench: Bench) -> dict[str, float]:
    """Counters the proxy exports: ``stats`` plus its ``stats obs`` page."""
    proxy = bench.tier.proxy
    assert proxy is not None
    stats = await proxy.stats()
    page = await proxy.stats_obs()
    roundtrips = sum(
        float(line.rsplit(" ", 1)[1])
        for line in page.splitlines()
        if line.startswith("net_client_requests_total")
    )
    return {**{name: float(value) for name, value in stats.items()},
            "backend_roundtrips": roundtrips}


def _span_metrics(log: SpanLog, keys_routed: int) -> dict[str, float]:
    own = self_time_by_name(log.spans)
    get_many = [
        span.end - span.start
        for span in log.spans
        if span.name == "net.client.get_many"
    ]
    return {
        "hashing.ketama.route_us_per_key": (
            own.get("hashing.ketama.route", 0.0) / keys_routed * 1e6
            if keys_routed
            else 0.0
        ),
        "net.client.get_many_span_p50_us": (
            median(get_many) * 1e6 if get_many else 0.0
        ),
    }


def _cpu_split(
    marks: list[tuple[float, Counts, Any]], ops: int
) -> dict[str, float]:
    (t0, _, (driver0, sut0)), (t1, _, (driver1, sut1)) = marks[0], marks[-1]
    wall = t1 - t0
    return {
        "driver.cpu_us_per_op": (driver1 - driver0) / ops * 1e6,
        "sut.cpu_us_per_op": (sut1 - sut0) / ops * 1e6,
        "driver.cpu_util": (driver1 - driver0) / wall,
        "sut.cpu_util": (sut1 - sut0) / wall,
    }


OVERHEAD_BLOCKS = 8
"""The traced and untraced 1-worker sections alternate in this many
blocks, so that a change of pace of the box falls on both alike."""


async def _trace_overhead(
    bench: Bench, requests: list[Any], log: SpanLog, first_id: int
) -> tuple[float, Counts]:
    """One worker, alternating untraced and traced blocks of ``requests``.

    Returns ``trace.overhead_frac`` (the share of the untraced rate the
    spans cost) and the counts after the last block.
    """
    size = len(requests) // OVERHEAD_BLOCKS
    seconds = {False: 0.0, True: 0.0}
    for block in range(OVERHEAD_BLOCKS):
        traced = block % 2 == 1
        loop = await closed_loop(
            bench.tier,
            requests[block * size : (block + 1) * size],
            1,
            size,
            bench.probe,
            log if traced else None,
            first_id + block * size,
        )
        seconds[traced] += loop.marks[-1][0] - loop.marks[0][0]
    return 1.0 - seconds[False] / seconds[True], bench.tier.counts.copy()


def _ladder_checks(result: RunResult, rungs: list[ladder.Rung]) -> None:
    metrics = result.metrics
    top = rungs[-1].total_s
    selfs = [rungs[0].total_s] + [
        upper.total_s - lower.total_s for lower, upper in zip(rungs, rungs[1:])
    ]
    result.check(
        "ladder_self_times_sum_to_top",
        abs(sum(selfs) - top) <= 1e-9 * max(1.0, top),
        f"sum {sum(selfs):.6f}s vs top {top:.6f}s",
    )
    rung_p50 = metrics["net.client.get_many_rung_p50_us"]
    span_p50 = metrics["net.client.get_many_span_p50_us"]
    result.notes["ladder"] = [
        {"rung": rung.name, "total_s": rung.total_s, "self_s": own}
        for rung, own in zip(rungs, selfs)
    ]
    # Reported, not enforced: both medians are of sub-millisecond calls
    # on a shared box; the README says how to read a disagreement.
    result.notes["ladder_vs_span"] = {
        "rung_p50_us": rung_p50,
        "span_p50_us": span_p50,
        "agree": span_p50 > 0
        and abs(rung_p50 - span_p50) / span_p50 <= LADDER_SPAN_TOLERANCE,
    }


async def closed_traced(
    spec: WorkloadSpec, seed: int, seconds: float, child_cpus: list[int] | None
) -> RunResult:
    """The traced run of a closed-loop workload: spans, counters, ladder."""
    result = RunResult(spec.name, seed, seconds, traced=True)
    quarter = max(20, round(spec.requests_per_s * seconds / 4))
    rungs_n = max(20, round(LADDER_REQUESTS_PER_S * seconds))
    log = SpanLog()
    bench = await set_up(spec, seed, max(3 * quarter, rungs_n), child_cpus)
    try:
        requests = bench.tape.requests
        before = await bench.wire_stats()
        proxy_before = await _proxy_stats(bench) if bench.tier.proxy else {}
        # Two workers, untraced: who is the bottleneck at full load.
        full = await closed_loop(
            bench.tier, requests[:quarter], WORKERS, quarter, bench.probe
        )
        overhead, counts = await _trace_overhead(
            bench, requests[quarter : 3 * quarter], log, quarter
        )
        after = await bench.wire_stats()
        proxy_after = await _proxy_stats(bench) if bench.tier.proxy else {}
        ladder_metrics, rungs = await ladder.request_ladder(
            spec,
            bench.tape,
            seed,
            bench.child.info["endpoints"],
            bench.child.info.get("proxy"),
            rungs_n,
        )
    finally:
        await bench.close(result)

    traced_requests = sum(1 for span in log.spans if span.name == "request")
    routed_keys = 0 if spec.topology == "proxy" else traced_requests * KEYS_PER_REQUEST
    evictions = _evictions(after) - _evictions(before)
    result.metrics = {
        **_setup_metrics(bench),
        **ladder_metrics,
        **_span_metrics(log, routed_keys),
        **_cpu_split(full.marks, quarter * KEYS_PER_REQUEST),
        "memcached.node.evictions": float(evictions),
        "trace.overhead_frac": overhead,
        "error_frac": counts.failed / counts.requests if counts.requests else 1.0,
    }
    if proxy_after:
        delta = {
            name: proxy_after[name] - proxy_before.get(name, 0.0)
            for name in proxy_after
        }
        fetches = delta["coalesce_leaders"] + delta["coalesce_followers"]
        result.metrics.update(
            {
                "proxy.backend_roundtrips_per_req": (
                    delta["backend_roundtrips"] / counts.requests
                ),
                "proxy.coalesced_frac": (
                    delta["coalesce_followers"] / fetches if fetches else 0.0
                ),
                "proxy.fanout_reads": delta["fanout_reads"],
                "proxy.hot_keys": proxy_after["hot_keys"],
                "proxy.degraded_ops": delta["degraded_gets"] + delta["degraded_sets"],
            }
        )
    log.write(OUT_DIR / f"{spec.name}.spans.jsonl")
    result.notes.update(
        tape_sha256=bench.tape.digest(),
        spans=len(log.spans),
        span_self_s=self_time_by_name(log.spans),
    )
    _output_checks(result, counts)
    _eviction_check(result, spec, evictions)
    _ladder_checks(result, rungs)
    if spec.topology != "proxy":
        result.check(
            "no_proxy_or_master_spans",
            not any(
                span.name.startswith(("core.master", "proxy")) for span in log.spans
            ),
        )
    return result


# ---------------------------------------------------------------------------
# scale_in_warm: open loop, one node retired mid-run
# ---------------------------------------------------------------------------


class PipeReader:
    """The child's messages as awaitables, without a thread.

    The pipe's file descriptor is registered with the loop; whatever the
    child sends lands in a queue the run awaits on.
    """

    def __init__(self, conn: multiprocessing.connection.Connection) -> None:
        self._conn = conn
        self._queue: asyncio.Queue[tuple[Any, ...]] = asyncio.Queue()
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(conn.fileno(), self._drain)

    def _drain(self) -> None:
        try:
            while self._conn.poll(0):
                self._queue.put_nowait(self._conn.recv())
        except (EOFError, OSError):
            self._queue.put_nowait(("error", "controller closed its pipe"))
            self.close()

    async def expect(self, kind: str, timeout_s: float) -> Any:
        message = await asyncio.wait_for(self._queue.get(), timeout_s)
        if message[0] != kind:
            raise ChildError(f"expected {kind!r} from controller, got {message!r}")
        return message[1]

    def close(self) -> None:
        self._loop.remove_reader(self._conn.fileno())


def smoke_scale_in(spec: WorkloadSpec) -> WorkloadSpec:
    """``scale_in_warm`` shrunk to one slab page per node.

    The migration's size is set by node memory, not by run length, so a
    short smoke run needs a smaller tier to fit trigger, migration and
    post window inside a few seconds.
    """
    return dataclasses.replace(spec, memory_per_node=MIB, num_keys=7_000)


def _node_capacity(spec: WorkloadSpec, tape: Tape) -> int:
    """Items one node holds before it starts evicting."""
    probe = MemcachedNode("probe", spec.memory_per_node)
    for key in tape.seed_order:
        payload = tape.payloads[key]
        probe.set(key, (0, payload), len(payload), 0.0)
        if probe.stats.evictions:
            break
    return len(probe)


@dataclass
class ScaleInRun:
    """Raw material of one open-loop scale-in run."""

    loop: OpenLoopResult
    scaled: dict[str, Any]
    wall_s: float
    driver_cpu_s: float
    sut_cpu_s: float
    rss_mb: float
    trigger: int
    completions: dict[str, list[float]]


async def _scale_in_timeline(
    bench: Bench, rate: float, total: int, log: SpanLog | None
) -> ScaleInRun:
    """Replay the tape open loop; trigger the scale-in at 0.4 of the run."""
    child = bench.child
    tier = bench.tier
    pipe = PipeReader(child.conn)
    trigger = round(total * TRIGGER_AT)
    tier.completions = {}
    try:
        driver0, sut0 = bench.probe()
        started = time.perf_counter()
        loop = await open_loop(
            tier,
            bench.tape.requests[:total],
            rate,
            trigger,
            lambda: child.conn.send(("scale_in",)),
            lambda: pipe.expect("switched", 120.0),
            lambda: child.conn.send(("drained",)),
            log,
        )
        scaled = await pipe.expect("scaled", 60.0)
        wall = time.perf_counter() - started
        driver1, sut1 = bench.probe()
    finally:
        pipe.close()
    completions, tier.completions = tier.completions, None
    node_pids = child.info["node_pids"]
    retired = scaled["retired"][0]
    # The retired process is gone by now; the controller read its CPU and
    # peak RSS just before stopping it.
    sut_cpu = sut1 + scaled["retired_cpu_s"] - sut0
    rss = scaled["retired_rss_mb"] + sum(
        peak_rss_mb(pid)
        for pid in child.pids
        if pid != node_pids[retired]
    )
    return ScaleInRun(
        loop=loop,
        scaled=scaled,
        wall_s=wall,
        driver_cpu_s=driver1 - driver0,
        sut_cpu_s=sut_cpu,
        rss_mb=rss,
        trigger=trigger,
        completions=completions,
    )


def _scale_in_metrics(
    result: RunResult, run: ScaleInRun, counts: Counts, seconds: float
) -> tuple[int, int]:
    """Fill the end-to-end metrics; returns the ``(switch, post_stop)``
    indices: the first request due after the switch, and after the post
    window."""
    loop, scaled = run.loop, run.scaled
    total = len(loop.due)
    start = scaled["start"] - loop.origin
    end = scaled["end"] - loop.origin
    switched = loop.switched_at if loop.switched_at is not None else end
    post_s = seconds / 4
    switch = bisect.bisect_left(loop.due, switched)
    post_stop = bisect.bisect_left(loop.due, switched + post_s)
    steady = loop.response[run.trigger // 5 : run.trigger]
    cuts = list(range(0, len(steady) - STEADY_CHUNK + 1, STEADY_CHUNK)) or [0]
    chunks = [
        steady[lo:hi] for lo, hi in zip(cuts, [*cuts[1:], len(steady)])
    ]
    window = [
        response
        for due, response in zip(loop.due, loop.response)
        if start <= due <= end
    ]
    post = loop.hits_gets[switch:post_stop]
    post_gets = sum(gets for _, gets in post)
    hits = sum(h for h, _ in loop.hits_gets)
    gets = sum(g for _, g in loop.hits_gets)
    ok_ops = (counts.requests - counts.failed) * KEYS_PER_REQUEST
    slow_s = SLOW_MS / 1e3
    bad = sum(1 for response in loop.response if response > slow_s)
    result.metrics.update(
        {
            "ops_per_s": ok_ops / run.wall_s,
            "req_p50_ms": median(percentile(c, 0.50) for c in chunks) * 1e3,
            "req_p99_ms": median(percentile(c, 0.99) for c in chunks) * 1e3,
            "cpu_us_per_op": (run.driver_cpu_s + run.sut_cpu_s) / max(1, ok_ops) * 1e6,
            "hit_rate": hits / gets if gets else 0.0,
            "sut_rss_mb": run.rss_mb,
            "window_p99_ms": percentile(window, 0.99) * 1e3 if window else 0.0,
            "post_hit_rate": (
                sum(h for h, _ in post) / post_gets if post_gets else 0.0
            ),
            "error_frac": counts.failed / total,
            "scale_in_s": end - start,
            "bad_req_frac": bad / total,
            "good_req_frac": 1.0 - bad / total,
            "degraded_s": degraded_seconds(
                zip(loop.due, loop.response), BUCKET_S, slow_s
            ),
        }
    )
    result.notes.update(
        steady_samples=len(steady),
        window_samples=len(window),
        post_gets=post_gets,
        scale_in_window_s=[start, end],
        switched_at_s=switched,
    )
    result.check(
        "post_window_inside_run",
        switched + post_s <= loop.due[-1],
        f"switched at {switched:.2f}s, post window {post_s:.2f}s",
    )
    return switch, post_stop


def _scale_in_checks(
    result: RunResult, bench: Bench, run: ScaleInRun, capacity: int
) -> None:
    scaled = run.scaled
    members = sorted(bench.child.info["endpoints"])
    expected = [name for name in members if name not in scaled["retired"]]
    result.check("outcome_warm", scaled["outcome"] == "warm", scaled["outcome"])
    result.check(
        "imported_equals_exported",
        scaled["items_imported"] == scaled["items_exported"] > 0,
        f"imported {scaled['items_imported']} of {scaled['items_exported']}",
    )
    result.check(
        "membership_after_switch",
        scaled["membership_after"] == expected
        and sorted(bench.tier.ring.members) == expected,
        f"{scaled['membership_after']} vs expected {expected}",
    )
    result.check(
        "retired_process_gone", not scaled["retired_alive"], scaled["retired"][0]
    )
    share = 2 * capacity / bench.spec.num_keys
    result.check(
        "two_nodes_cannot_hold_every_key",
        0.5 < share < 0.95,
        f"2 nodes hold {share:.2f} of the keys",
    )
    result.notes["two_node_share"] = share


def _stall_max_ms(run: ScaleInRun) -> float:
    """Longest gap between completions from one retained node during the
    scale-in window."""
    start, end = run.scaled["start"], run.scaled["end"]
    worst = 0.0
    for node, times in run.completions.items():
        if node in run.scaled["retired"]:
            continue
        inside = [start] + [t for t in times if start <= t <= end] + [end]
        worst = max(worst, max(b - a for a, b in zip(inside, inside[1:])))
    return worst * 1e3


async def scale_in_run(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    child_cpus: list[int] | None,
    traced: bool,
    setups: int,
) -> RunResult:
    """``scale_in_warm``: end to end, or traced at a quarter of the rate."""
    result = RunResult(spec.name, seed, seconds, traced=traced)
    rate = spec.requests_per_s / 4 if traced else spec.requests_per_s
    total = round(rate * seconds)
    # Requests of the 1-worker untraced/traced pair run after the timeline.
    extra = max(40, round(spec.requests_per_s * seconds / 2)) if traced else 0
    rungs_n = max(20, round(LADDER_REQUESTS_PER_S * seconds)) if traced else 0
    log = SpanLog() if traced else None
    bench, setup_times = await set_up_repeatedly(
        spec, seed, max(total + extra, rungs_n), child_cpus, 1 if traced else setups
    )
    wire_metrics: dict[str, float] = {}
    ladder_metrics: dict[str, float] = {}
    rungs: list[ladder.Rung] = []
    overhead = 0.0
    try:
        seeded = await bench.wire_stats()
        run = await _scale_in_timeline(bench, rate, total, log)
        counts = bench.tier.counts.copy()
        if log is not None:
            # The ring now holds the retained nodes only.
            retained = {
                name: endpoint
                for name, endpoint in bench.child.info["endpoints"].items()
                if name in bench.tier.ring.members
            }
            overhead, _ = await _trace_overhead(
                bench, bench.tape.requests[total : total + extra], log, total
            )
            ladder_metrics, rungs = await ladder.request_ladder(
                spec, bench.tape, seed, retained, None, rungs_n
            )
            wire_metrics = await ladder.migration_ladder_wire(
                retained, run.scaled["items_imported"]
            )
    finally:
        await bench.close(result)

    result.metrics["setup_s"] = median(setup_times)
    result.notes.update(tape_sha256=bench.tape.digest(), setup_times_s=setup_times)
    switch, post_stop = _scale_in_metrics(result, run, counts, seconds)
    _output_checks(result, counts)
    result.check(
        "three_nodes_hold_every_key",
        _evictions(seeded) == 0
        and sum(node["curr_items"] for node in seeded.values()) == spec.num_keys,
        f"{sum(node['curr_items'] for node in seeded.values())} items, "
        f"{_evictions(seeded)} evictions after seeding",
    )
    _scale_in_checks(result, bench, run, _node_capacity(spec, bench.tape))

    members = sorted(bench.child.info["endpoints"])
    retiring = run.scaled["retired"][0]
    twins = ladder.reference_twins(
        spec, bench.tape, rate, members, retiring, run.trigger, switch, post_stop
    )
    live = result.metrics["post_hit_rate"]
    result.check(
        "post_hit_rate_matches_twin",
        abs(live - twins.twin_post_hit_rate) <= TWIN_TOLERANCE,
        f"live {live:.4f} vs twin {twins.twin_post_hit_rate:.4f}",
    )
    result.notes["twin"] = {
        "cold_post_hit_rate": twins.cold_post_hit_rate,
        "twin_post_hit_rate": twins.twin_post_hit_rate,
        "twin_items_imported": twins.items_imported,
    }
    if log is None:
        return result

    for name, start, end in run.scaled["spans"]:
        log.add(name, start, end)
    log.write(OUT_DIR / f"{spec.name}.spans.jsonl")
    controller = {name: end - start for name, start, end in run.scaled["spans"]}
    ok_ops = (counts.requests - counts.failed) * KEYS_PER_REQUEST
    headline = {
        name: result.metrics[name]
        for name in (
            "error_frac",
            "scale_in_s",
            "window_p99_ms",
            "bad_req_frac",
            "degraded_s",
        )
    }
    result.notes["traced_end_to_end"] = dict(result.metrics)
    traced_requests = sum(1 for span in log.spans if span.name == "request")
    result.metrics = {
        **_setup_metrics(bench),
        **ladder_metrics,
        **wire_metrics,
        **ladder.migration_ladder_in_process(
            spec, bench.tape, rate, members, retiring, switch, twins.transfers
        ),
        **_span_metrics(log, traced_requests * KEYS_PER_REQUEST),
        **headline,
        "driver.cpu_us_per_op": run.driver_cpu_s / max(1, ok_ops) * 1e6,
        "sut.cpu_us_per_op": run.sut_cpu_s / max(1, ok_ops) * 1e6,
        "driver.cpu_util": run.driver_cpu_s / run.wall_s,
        "sut.cpu_util": run.sut_cpu_s / run.wall_s,
        "memcached.node.evictions": 0.0,
        "core.master.choose_retiring_s": controller["core.master.choose_retiring"],
        "core.master.plan_s": controller["core.master.plan"],
        "core.master.execute_s": controller["core.master.execute"],
        "net.procs.stop_node_s": controller["net.procs.stop_node"],
        "master.items_exported": float(run.scaled["items_exported"]),
        "master.items_imported": float(run.scaled["items_imported"]),
        "master.outcome": float(OUTCOME_CODES[run.scaled["outcome"]]),
        "node.stall_max_ms": _stall_max_ms(run),
        "driver.lateness_p99_ms": percentile(run.loop.lateness, 0.99) * 1e3,
        "driver.inflight_max": float(run.loop.inflight_max),
        "ref.cold_post_hit_rate": twins.cold_post_hit_rate,
        "ref.twin_post_hit_rate": twins.twin_post_hit_rate,
        "trace.overhead_frac": overhead,
        # The exact count comes from the deterministic twin's plan; the
        # live plan's (it follows wall-clock timestamps) is in the notes.
        "core.fusecache.comparisons": float(twins.comparisons),
    }
    result.notes.update(
        live_fusecache_comparisons=run.scaled["fusecache_comparisons"],
        spans=len(log.spans),
        span_self_s=self_time_by_name(log.spans),
    )
    _ladder_checks(result, rungs)
    result.check(
        "execute_dominates_scale_in",
        controller["core.master.execute"] > 0.5 * headline["scale_in_s"],
        f"execute {controller['core.master.execute']:.2f}s of "
        f"{headline['scale_in_s']:.2f}s",
    )
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_workload(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    traced: bool,
    child_cpus: list[int] | None,
    setups: int = SETUP_REPEATS,
) -> RunResult:
    """Run one workload once, in a fresh event loop.

    ``setups`` is how many times an end-to-end run sets the tier up
    (``setup_s`` is the median); a traced run sets up once.
    """
    if spec.open_loop:
        work = scale_in_run(spec, seed, seconds, child_cpus, traced, setups)
    elif traced:
        work = closed_traced(spec, seed, seconds, child_cpus)
    else:
        work = closed_end_to_end(spec, seed, seconds, child_cpus, setups)
    return asyncio.run(work)

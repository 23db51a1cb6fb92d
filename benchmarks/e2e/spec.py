"""Frozen workload sizes and the metric catalogue.

Everything a later issue needs to refer to by name lives here: the four
workloads, the end-to-end metrics with their regression bounds, and the
per-layer metrics.  ``BENCHMARK.json`` at the repo root repeats the
names, units, directions and bounds (the self-test keeps the two in
step); the sizes below are what "frozen" means for this benchmark.

Measured sections are count-bound: a run asked to measure for ``S``
seconds executes ``round(rate * S)`` requests, where ``rate`` is the
request rate of the seed commit on the reference 2-core box.  The same
``--seconds`` therefore always replays the same number of requests, so
hit rates, item counts and comparison counts repeat exactly, and the
section takes about ``S`` seconds until someone makes the code faster.
"""

from __future__ import annotations

from dataclasses import dataclass

KEYS_PER_REQUEST = 8
"""A request is a multiget of this many keys (the paper's web tier)."""

WORKERS = 2
"""Closed-loop clients, and connections per node client."""

SEGMENTS = 12
"""Measured count-bound segments per closed-loop run (plus one warm-up)."""

DEFAULT_SECONDS = 35
"""Measured seconds per section for ``--all`` (the contract passes its own)."""

SMOKE_SECONDS = 2
"""``--smoke`` scale: exercises every code path, not for claims."""

SLOW_MS = 50.0
"""A request slower than this (from its due time) counts as bad."""

BUCKET_S = 0.5
"""Width of the buckets ``degraded_s`` is counted in."""

LADDER_REQUESTS_PER_S = 115
"""Ladder length per measured second (4 000 requests at 35 s)."""

SETUP_REPEATS = 3
"""Set-ups per end-to-end run; ``setup_s`` is their median."""


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload: topology, tape shape and the frozen request rate."""

    name: str
    why: str
    topology: str  # "live" | "proxy" | "procs"
    nodes: int
    memory_per_node: int
    num_keys: int
    value_bytes: int
    zipf_alpha: float
    write_fraction: float
    # Closed loop: requests per measured second on the seed commit, so a
    # section of S seconds replays round(rate * S) requests.  Open loop:
    # the offered request rate itself.
    requests_per_s: float
    open_loop: bool = False


MIB = 1 << 20

WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="read_small",
            why=(
                "95% multiget requests of 64 B values that all fit: smallest "
                "messages, so per-message cost in net.client, net.server and "
                "memcached.protocol dominates; proxy and Master are bypassed"
            ),
            topology="live",
            nodes=2,
            memory_per_node=64 * MIB,
            num_keys=20_000,
            value_bytes=64,
            zipf_alpha=0.95,
            write_fraction=0.05,
            requests_per_s=4000.0,
        ),
        WorkloadSpec(
            name="write_evict",
            why=(
                "50% write requests of 1 KiB values, tier holds ~25% of the "
                "keys: payload bytes, slab allocation, LRU eviction and the "
                "fill path do the work, so a read gain paid for by writes shows"
            ),
            topology="live",
            nodes=2,
            memory_per_node=4 * MIB,
            num_keys=30_000,
            value_bytes=1024,
            zipf_alpha=0.95,
            write_fraction=0.5,
            requests_per_s=3000.0,
        ),
        WorkloadSpec(
            name="proxy_read_skewed",
            why=(
                "read_small's tape at Zipf 1.1 through one ProxyServer: router, "
                "coalescer, hot-key replicas and write-through invalidation do "
                "most of the work here and none in the other three"
            ),
            topology="proxy",
            nodes=2,
            memory_per_node=64 * MIB,
            num_keys=20_000,
            value_bytes=64,
            zipf_alpha=1.1,
            write_fraction=0.05,
            requests_per_s=530.0,
        ),
        WorkloadSpec(
            name="scale_in_warm",
            why=(
                "open loop at 300 req/s while Master retires 1 of 3 node "
                "processes: the only workload running core.master, fusecache, "
                "agent, ts_dump/mig_export/batch_import and net.procs"
            ),
            topology="procs",
            nodes=3,
            memory_per_node=4 * MIB,
            num_keys=30_000,
            value_bytes=256,
            zipf_alpha=0.95,
            write_fraction=0.05,
            requests_per_s=300.0,
            open_loop=True,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    """Name, unit and direction of one reported number."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # share of the median it may worsen by
    workloads: tuple[str, ...] = ()  # empty = every workload
    # Workloads whose measured run-to-run spread needs a wider bound than
    # ``bound``; the README gives the spread that justifies each.
    wider: tuple[tuple[str, float], ...] = ()


SCALE = ("scale_in_warm",)

# Reported by every workload, never zero, and steady enough on a shared
# 2-core VM to be held to a bound of at most 0.25 by ten runs: these are
# the end-to-end metrics BENCHMARK.json lists.
CONTRACT_END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("req_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_us_per_op", "us", "lower", 0.25),
    Metric("hit_rate", "ratio", "higher", 0.02),
    Metric("sut_rss_mb", "MB", "lower", 0.10),
    Metric("good_req_frac", "ratio", "higher", 0.10),
    Metric("post_hit_rate", "ratio", "higher", 0.03),
)

# Tail latencies follow the host's hiccups more than the code (spreads of
# 0.5 were measured on scale_in_warm), and the rest are zero on a healthy
# closed-loop run or exist on scale_in_warm only; none of that fits the
# contract.  ``--all`` prints them and ``--sets`` holds them to these
# bounds, on the workloads named.
OWN_END_TO_END: tuple[Metric, ...] = (
    Metric(
        "req_p99_ms",
        "ms",
        "lower",
        0.25,
        wider=(("read_small", 0.50), ("scale_in_warm", 0.75)),
    ),
    Metric("error_frac", "ratio", "lower", None),
    Metric("scale_in_s", "s", "lower", 0.25, SCALE),
    Metric("window_p99_ms", "ms", "lower", 0.60, SCALE),
    Metric("bad_req_frac", "ratio", "lower", 0.30, SCALE),
    Metric("degraded_s", "s", "lower", 0.60, SCALE),
)

END_TO_END: tuple[Metric, ...] = CONTRACT_END_TO_END + OWN_END_TO_END

PROXY = ("proxy_read_skewed",)

PER_LAYER: tuple[Metric, ...] = (
    Metric("memcached.node.get_us_per_op", "us", "lower"),
    Metric("memcached.node.set_us_per_op", "us", "lower"),
    Metric("memcached.node.evictions", "count", "lower"),
    Metric("memcached.protocol.get_self_us_per_op", "us", "lower"),
    Metric("memcached.protocol.set_self_us_per_op", "us", "lower"),
    Metric("net.server.self_us_per_req", "us", "lower"),
    Metric("net.client.self_us_per_req", "us", "lower"),
    Metric("net.client.get_many_rung_p50_us", "us", "lower"),
    Metric("net.client.get_many_span_p50_us", "us", "lower"),
    Metric("wire.bytes_per_op", "B", "lower"),
    Metric("hashing.ketama.route_us_per_key", "us", "lower"),
    Metric("driver.cpu_us_per_op", "us", "lower"),
    Metric("sut.cpu_us_per_op", "us", "lower"),
    Metric("driver.cpu_util", "ratio", "lower"),
    Metric("sut.cpu_util", "ratio", "lower"),
    Metric("proxy.self_us_per_req", "us", "lower", None, PROXY),
    Metric("proxy.backend_roundtrips_per_req", "count", "lower", None, PROXY),
    Metric("proxy.coalesced_frac", "ratio", "higher", None, PROXY),
    Metric("proxy.fanout_reads", "count", "lower", None, PROXY),
    Metric("proxy.hot_keys", "count", "higher", None, PROXY),
    Metric("proxy.degraded_ops", "count", "lower", None, PROXY),
    Metric("loadgen.build_schedule_s", "s", "lower"),
    Metric("loadgen.replay_us_per_op", "us", "lower"),
    Metric("loadgen.response_p50_ms", "ms", "lower"),
    Metric("loadgen.service_p50_ms", "ms", "lower"),
    Metric("core.master.choose_retiring_s", "s", "lower", None, SCALE),
    Metric("core.master.plan_s", "s", "lower", None, SCALE),
    Metric("core.master.execute_s", "s", "lower", None, SCALE),
    Metric("net.procs.stop_node_s", "s", "lower", None, SCALE),
    Metric("core.fusecache.select_ms", "ms", "lower", None, SCALE),
    Metric("core.fusecache.comparisons", "count", "lower", None, SCALE),
    Metric("memcached.node.import_merge_us_per_item", "us", "lower", None, SCALE),
    Metric("memcached.node.import_prepend_us_per_item", "us", "lower", None, SCALE),
    Metric("memcached.node.export_us_per_item", "us", "lower", None, SCALE),
    Metric("memcached.node.ts_dump_us_per_item", "us", "lower", None, SCALE),
    Metric("net.cluster.import_us_per_item", "us", "lower", None, SCALE),
    Metric("net.cluster.export_us_per_item", "us", "lower", None, SCALE),
    Metric("net.cluster.ts_dump_us_per_item", "us", "lower", None, SCALE),
    Metric("master.items_exported", "count", "higher", None, SCALE),
    Metric("master.items_imported", "count", "higher", None, SCALE),
    Metric("master.outcome", "code", "higher", None, SCALE),
    Metric("node.stall_max_ms", "ms", "lower", None, SCALE),
    Metric("driver.lateness_p99_ms", "ms", "lower", None, SCALE),
    Metric("driver.inflight_max", "count", "lower", None, SCALE),
    Metric("ref.cold_post_hit_rate", "ratio", "higher", None, SCALE),
    Metric("ref.twin_post_hit_rate", "ratio", "higher", None, SCALE),
    Metric("net.procs.boot_s", "s", "lower"),
    Metric("seed_s", "s", "lower"),
    Metric("tape_build_s", "s", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    # The scale-in headline numbers as the traced (quarter-rate) run saw
    # them: 0 on the closed-loop workloads, where nothing is retired.
    Metric("error_frac", "ratio", "lower"),
    Metric("scale_in_s", "s", "lower", None, SCALE),
    Metric("window_p99_ms", "ms", "lower", None, SCALE),
    Metric("bad_req_frac", "ratio", "lower", None, SCALE),
    Metric("degraded_s", "s", "lower", None, SCALE),
)

OUTCOME_CODES = {"cold": 0, "partial": 1, "warm": 2}
"""``master.outcome`` as a number (the result line carries only numbers)."""


def bound_for(metric: Metric, workload: str) -> float | None:
    """The regression bound of ``metric`` on ``workload``."""
    return dict(metric.wider).get(workload, metric.bound)


def applies(metric: Metric, workload: str) -> bool:
    """True when ``metric`` is defined on ``workload``."""
    return not metric.workloads or workload in metric.workloads

"""Scenario runner: trace x policy x scaling actions -> per-second metrics.

One :func:`run_experiment` call reproduces one line of one paper figure:
it builds the dataset, cluster, database, and policy; pre-warms the cache
to a realistic MRU state; replays the demand trace second by second; and
fires the scaling actions either from an explicit schedule (the
annotations on Figs. 6/8) or from the stack-distance AutoScaler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.autoscaler import (
    AutoScaler,
    AutoScalerConfig,
    ScalingDecision,
    ScalingEngine,
    ScalingEngineConfig,
    ScheduledScalingPolicy,
)
from repro.core.master import Master, MigrationReport
from repro.core.policies import MigrationPolicy, make_policy
from repro.core.retry import RetryPolicy
from repro.database.latency import DatabaseTier
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule
from repro.memcached.cluster import MemcachedCluster
from repro.netsim.transfer import GBIT, NetworkModel
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.metrics import MetricsCollector
from repro.sim.webapp import LatencyModel, WebApplication
from repro.workloads.generator import RequestGenerator
from repro.workloads.keyspace import Dataset, build_dataset
from repro.workloads.popularity import (
    NodeBiasedPopularity,
    ZipfPopularity,
    lognormal_node_weights,
)
from repro.workloads.traces import RateTrace, make_trace

MIB = 1 << 20


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment line.

    The defaults describe a laptop-scale version of the paper's testbed:
    10 cache nodes, a Zipf-skewed dataset a bit larger than the tier's
    aggregate memory, and a database whose capacity comfortably absorbs
    steady-state misses but saturates under a post-scaling miss storm.
    """

    trace: RateTrace | str = "etc"
    policy: MigrationPolicy | str = "elmem"
    duration_s: int | None = None
    num_keys: int = 150_000
    initial_nodes: int = 10
    # 10 pages/node: the 10-node tier holds ~80% of the (chunk-rounded)
    # dataset -- high stable hit rate with real eviction pressure once
    # the tier shrinks below ~9 nodes.
    memory_per_node: int = 10 * MIB
    peak_request_rate: float = 250.0
    items_per_request: int = 4
    zipf_alpha: float = 1.0
    max_value_size: int = 6_000
    # Inter-node hot-spot spread: sigma of the lognormal per-node hotness
    # multiplier (0 = perfectly symmetric placement).  Production tiers
    # show real per-node temperature differences, which is what makes
    # node *choice* (Q2) and metadata-aware migration (Q3) matter.
    node_bias_sigma: float = 0.5
    min_chunk: int = 96
    # A coarse growth factor keeps the number of slab classes below the
    # per-node page count; tiny simulated nodes would otherwise starve
    # rare size classes of pages entirely.
    growth_factor: float = 3.0
    db_capacity_rps: float = 45.0
    db_service_time_s: float = 0.004
    schedule: list[tuple[float, int]] = field(default_factory=list)
    autoscale: bool = False
    autoscale_interval_s: float = 60.0
    # Do not act before the profiling window has seen enough requests;
    # a cold-dominated window makes every hit-rate target look
    # unreachable and the working set look tiny.
    autoscale_min_window: int = 50_000
    warmup_seconds: int = 30
    # "prepend" is Memcached-faithful (batch import at the MRU head);
    # "merge" keeps MRU lists timestamp-sorted (ablation).
    import_mode: str = "prepend"
    nic_bandwidth_bps: float = 0.25 * GBIT
    latency: LatencyModel = field(default_factory=LatencyModel)
    seed: int = 0
    # Robustness: an optional seeded fault campaign applied while the
    # trace replays, plus the Master's resilience knobs.
    fault_schedule: FaultSchedule | None = None
    retry_policy: RetryPolicy | None = None
    migration_deadline_s: float | None = None
    flow_timeout_s: float | None = None
    # Observability: pass ``create_telemetry()`` to record migration
    # span trees and metrics for the whole stack; the default no-op
    # telemetry keeps the hot path unmeasured and near-free.
    telemetry: Telemetry | None = None
    # Correctness: run the repro.check invariant validators after every
    # migration phase (`repro check`'s smoke runs and CI set this).  A
    # corrupted LRU list / slab count / ring raises InvariantViolation
    # instead of silently distorting the results.
    strict_checks: bool = False
    # Serve multi-gets and read-through fills via the cluster's batched
    # fast paths (get_many/set_many).  ``False`` selects the per-op
    # reference path; both produce bit-identical caches, stats, and
    # telemetry (tests/test_batch_equivalence.py holds this).
    batched_ops: bool = True

    def trace_object(self) -> RateTrace:
        """The demand trace, resolved from a registry name if needed."""
        if isinstance(self.trace, RateTrace):
            return self.trace
        return make_trace(self.trace)


@dataclass
class ExperimentResult:
    """Outputs of one experiment run."""

    config: ExperimentConfig
    metrics: MetricsCollector
    policy: MigrationPolicy
    scaling_times: list[float]
    decisions: list[ScalingDecision]
    dataset: Dataset
    cluster: MemcachedCluster
    master: Master | None = None
    telemetry: Telemetry = NULL_TELEMETRY

    @property
    def reports(self) -> list[MigrationReport]:
        """Migration reports produced by the policy, if any."""
        return self.policy.reports

    @property
    def trace(self):
        """Root migration spans recorded by the run's tracer.

        Empty when the experiment ran without telemetry.
        """
        return self.telemetry.tracer.roots

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The run's fault injector, when a schedule was configured."""
        return self.master.fault_injector if self.master else None

    def summary(self) -> dict[str, float]:
        """Headline metrics over the measured window."""
        return self.metrics.summary()


def build_stack(config: ExperimentConfig):
    """Construct (dataset, generator, cluster, database, master, policy).

    Exposed separately so benchmarks and examples can assemble partial
    stacks (e.g. Fig. 7 needs a warmed cluster but no traffic replay).
    """
    telemetry = config.telemetry or NULL_TELEMETRY
    dataset = build_dataset(
        config.num_keys,
        seed=config.seed,
        max_value_size=config.max_value_size,
    )
    names = [f"node-{i:03d}" for i in range(config.initial_nodes)]
    cluster = MemcachedCluster(
        names,
        config.memory_per_node,
        min_chunk=config.min_chunk,
        growth_factor=config.growth_factor,
        metrics=telemetry.metrics if telemetry.enabled else None,
    )
    popularity = ZipfPopularity(
        config.num_keys, alpha=config.zipf_alpha, seed=config.seed + 1
    )
    if config.node_bias_sigma > 0:
        weights = lognormal_node_weights(
            names, config.node_bias_sigma, seed=config.seed + 4
        )
        owners = cluster.route_many(
            dataset.keyspace.keys_for(range(config.num_keys))
        )
        popularity = NodeBiasedPopularity(
            popularity, owners, weights, seed=config.seed + 1
        )
    generator = RequestGenerator(
        dataset,
        popularity,
        items_per_request=config.items_per_request,
        seed=config.seed + 2,
    )
    database = DatabaseTier(
        dataset.store,
        capacity_rps=config.db_capacity_rps,
        service_time_s=config.db_service_time_s,
    )
    network = NetworkModel(
        nic_bandwidth_bps=config.nic_bandwidth_bps,
        flow_timeout_s=config.flow_timeout_s,
        metrics=telemetry.metrics if telemetry.enabled else None,
    )
    master = Master(
        cluster,
        network=network,
        import_mode=config.import_mode,
        retry_policy=config.retry_policy,
        deadline_s=config.migration_deadline_s,
        telemetry=telemetry,
        strict_mode=config.strict_checks,
    )
    if config.fault_schedule is not None:
        FaultInjector(
            cluster, config.fault_schedule, telemetry=telemetry
        ).attach(master)
    if isinstance(config.policy, MigrationPolicy):
        policy = config.policy
    else:
        policy = make_policy(config.policy)
    policy.bind(cluster, master, random.Random(config.seed + 3))
    return dataset, generator, cluster, database, master, policy


def prefill_cluster(
    cluster: MemcachedCluster,
    dataset: Dataset,
    popularity: NodeBiasedPopularity | ZipfPopularity,
    end_time: float = -1.0,
) -> None:
    """Load the dataset into the cluster with popularity-ordered recency.

    Items are inserted coldest-first with increasing (negative) access
    timestamps, so after the fill each node's MRU lists approximate the
    steady state of a long-running cache: popular keys sit at the head,
    unpopular keys at the eviction tail.  This replaces hours of warm-up
    traffic with one pass over the key space.
    """
    order = popularity.rank_order()[::-1]  # coldest first
    spacing = 0.001
    start = end_time - spacing * len(order)
    keys = dataset.keyspace.keys_for(order)
    # Each item carries its own timestamp (that is the point of the
    # prefill), so this stays a per-item set; key materialization and
    # routing are still batched.
    owners = cluster.route_many(keys)
    nodes = cluster.nodes
    store_get = dataset.store.get
    for position, (key, owner) in enumerate(zip(keys, owners)):
        value, value_size = store_get(key)
        nodes[owner].set(key, value, value_size, start + spacing * position)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one full scenario and return its per-second metrics."""
    trace = config.trace_object()
    duration = config.duration_s or trace.duration_s
    dataset, generator, cluster, database, master, policy = build_stack(
        config
    )
    prefill_cluster(
        cluster,
        dataset,
        generator.popularity,
        end_time=-(config.warmup_seconds + 1.0),
    )

    engine: ScalingEngine | None = None
    observer = None
    if config.autoscale:
        # Slab-aware footprint plus ~40% headroom: page quantisation,
        # ring imbalance, and the partitioned-LRU penalty (a hash-
        # partitioned cache under skewed per-node demand hits less than
        # one global LRU of the same total size, which is what the
        # stack-distance curve models).  Raw item bytes would
        # under-provision the tier badly.
        chunk_bytes = dataset.average_chunk_bytes(
            config.min_chunk, config.growth_factor
        )
        engine = ScalingEngine(
            AutoScaler(
                AutoScalerConfig(
                    db_capacity_rps=config.db_capacity_rps,
                    node_memory_bytes=config.memory_per_node,
                    bytes_per_item=1.4 * chunk_bytes,
                    hit_rate_margin=0.02,
                    max_nodes=max(4, config.initial_nodes * 2),
                ),
                telemetry=config.telemetry,
            ),
            ScalingEngineConfig(
                evaluate_interval_s=config.autoscale_interval_s,
                min_window=config.autoscale_min_window,
            ),
        )
        observer = engine.observe_many

    app = WebApplication(
        generator,
        policy,
        database,
        latency=config.latency,
        seed=config.seed,
        key_observer=observer,
        batched_ops=config.batched_ops,
    )
    schedule = ScheduledScalingPolicy(config.schedule)
    metrics = MetricsCollector()
    scaling_times: list[float] = []
    decisions: list[ScalingDecision] = []
    telemetry = config.telemetry or NULL_TELEMETRY
    obs = telemetry.metrics
    g_backlog = obs.gauge(
        "db_backlog", "Database backlog (queued requests)"
    )
    g_nodes = obs.gauge("active_nodes", "Nodes on the hash ring")

    # Warm-up traffic at the trace's initial rate (negative times).
    initial_rate = trace.rate_at(0) * config.peak_request_rate
    for tick in range(config.warmup_seconds):
        now = float(tick - config.warmup_seconds)
        policy.tick(now)
        app.run_second(now, initial_rate)
    database.reset()

    rates = trace.normalised().values * config.peak_request_rate
    recent_kv_rate = initial_rate * config.items_per_request
    for tick in range(duration):
        now = float(tick)
        if master.fault_injector is not None:
            master.fault_injector.advance(now)
        policy.tick(now)

        pending_action = schedule.pending_action(
            now, len(cluster.active_members)
        )
        if pending_action is not None:
            scaling_times.append(now)
            decisions.append(pending_action)
            policy.on_scale_decision(pending_action.target_nodes, now)

        if engine is not None:
            engine_tick = engine.evaluate(
                recent_kv_rate,
                len(cluster.active_members),
                now=now,
                busy=policy.pending,
            )
            if engine_tick is not None:
                decisions.append(engine_tick.decision)
                if engine_tick.act:
                    scaling_times.append(now)
                    policy.on_scale_decision(
                        engine_tick.decision.target_nodes, now
                    )

        rate = float(rates[min(tick, len(rates) - 1)])
        record = app.run_second(now, rate)
        metrics.add(record)
        g_backlog.set(database.backlog_requests)
        g_nodes.set(len(cluster.active_members))
        if record.kv_gets:
            recent_kv_rate = 0.8 * recent_kv_rate + 0.2 * record.kv_gets

    for report in policy.reports:
        metrics.record_migration(report)

    return ExperimentResult(
        config=config,
        metrics=metrics,
        policy=policy,
        scaling_times=scaling_times,
        decisions=decisions,
        dataset=dataset,
        cluster=cluster,
        master=master,
        telemetry=telemetry,
    )

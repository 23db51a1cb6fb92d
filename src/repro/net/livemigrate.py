"""Scripted live scale-in: boot, seed, migrate over TCP, verify.

This is the end-to-end story the CLI (``repro live-migrate``) and the
CI live-smoke job run: boot a localhost cluster of asyncio node
servers, seed it with a deterministic keyset, and let the *unmodified*
:class:`~repro.core.master.Master` retire nodes through a
:class:`~repro.net.cluster.LiveCluster` -- every ``ts_dump``,
``mig_export``, and ``batch_import`` crossing a real socket.

With ``verify=True`` the same workload is replayed on an in-process
:class:`~repro.memcached.cluster.MemcachedCluster` twin and the final
per-node cache contents are compared byte for byte: identical seeding,
identical ketama rings, and a wire format that round-trips floats and
flags exactly mean the socket path must land the same items with the
same payloads and the same hotness timestamps as the in-process path.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.master import Master, MigrationReport
from repro.errors import ConfigurationError
from repro.faults.sockets import SocketFaultPolicy
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MigratedItem
from repro.memcached.slab import PAGE_SIZE
from repro.net.cluster import LiveCluster
from repro.net.server import LiveClusterHarness
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.export import write_jsonl
from repro.obs.trace import TraceContext
from repro.wire import flags_and_payload

ContentSignature = list[tuple[str, int, bytes, float]]
"""Sorted ``(key, flags, payload, last_access)`` rows of one node."""


@dataclass
class LiveMigrationResult:
    """What a scripted live scale-in did, plus the equivalence verdict."""

    node_names: list[str]
    retired: list[str]
    membership_after: list[str]
    outcome: str
    items_seeded: int
    items_exported: int
    items_imported: int
    completed_pairs: int
    failed_flows: int
    wall_seconds: float
    # None when verification was skipped; otherwise whether every
    # retained node's contents matched the in-process twin exactly.
    verified: bool | None = None
    mismatched_nodes: list[str] = field(default_factory=list)
    # Wall time the cluster spent inside the three-phase execute -- the
    # window during which routing/membership is in flux.
    degradation_window_s: float | None = None
    trace_spans: int = 0

    @property
    def warm(self) -> bool:
        """True when every planned pair migrated cleanly."""
        return self.outcome == "warm"

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly summary (CLI / CI artifact)."""
        return asdict(self)


def seed_records(
    items: int, value_bytes: int, seed: int
) -> list[MigratedItem]:
    """A deterministic keyset with random payloads, flags, and hotness."""
    rng = random.Random(seed)
    records = []
    for index in range(items):
        payload = rng.randbytes(value_bytes)
        records.append(
            MigratedItem(
                key=f"key-{index:06d}",
                value=(index % 16, payload),
                value_size=value_bytes,
                last_access=round(rng.uniform(0.0, 600.0), 3),
            )
        )
    return records


def node_signature(node: Any) -> ContentSignature:
    """Sorted full contents of one node via its public dump/export API.

    Works on both :class:`~repro.memcached.node.MemcachedNode` and
    :class:`~repro.net.cluster.RemoteNode` (where each call crosses the
    wire), so live and in-process caches can be compared byte for byte.
    """
    keys = [
        key
        for rows in node.dump_metadata().values()
        for key, _ in rows
    ]
    signature: ContentSignature = []
    for record in node.export_items(keys):
        flags, payload = flags_and_payload(record.value)
        signature.append((record.key, flags, payload, record.last_access))
    signature.sort()
    return signature


def mru_order(node: Any) -> dict[int, list[str]]:
    """Each slab class's keys, hottest first, via the public dump API;
    :func:`node_signature` sorts this order away."""
    return {
        class_id: [key for key, _ in rows]
        for class_id, rows in node.dump_metadata().items()
    }


def _seed_cluster(
    groups: dict[str, list[MigratedItem]], nodes: dict[str, Any]
) -> int:
    """Batch-import each node's records; returns total imported."""
    total = 0
    for name in sorted(groups):
        total += nodes[name].batch_import(groups[name], mode="merge")
    return total


def run_live_migration(
    nodes: int = 4,
    retire: int = 1,
    items: int = 2000,
    value_bytes: int = 64,
    seed: int = 7,
    memory_per_node: int = 8 * PAGE_SIZE,
    verify: bool = True,
    fault_schedule: Any | None = None,
    timeout_s: float = 5.0,
    backoff_scale: float = 1.0,
    telemetry: Telemetry | None = None,
    trace_jsonl: str | None = None,
    sanitize: bool = False,
    process_cluster: bool = False,
) -> LiveMigrationResult:
    """Boot ``nodes`` asyncio servers, seed them, retire ``retire`` of
    them through a socket-backed three-phase migration.

    Parameters mirror the CLI flags.  ``fault_schedule`` (a
    :class:`~repro.faults.spec.FaultSchedule`) attaches a
    :class:`~repro.faults.sockets.SocketFaultPolicy` to every server;
    combine it with a small ``timeout_s``/``backoff_scale`` to exercise
    the degrade-to-cold path over real sockets.  ``verify`` replays the
    workload on an in-process twin and compares final contents.
    ``sanitize`` runs both event loops (server harness and client
    cluster) under :class:`~repro.check.loopcheck.LoopSanitizer`
    instances -- asyncio debug mode plus the blocking-call trap -- and
    raises :class:`~repro.errors.InvariantViolation` after the migration
    if either loop recorded a hazard.

    With a ``telemetry`` the run is traced: a ``live_migration`` root
    with ``seed`` / ``plan`` / ``execute`` phase spans, and -- when its
    tracer samples requests -- each phase's wire operations (``stats``
    / ``ts_dump`` / ``mig_export`` / ``batch_import`` round trips and
    the servers' execute spans) joined through the ``trace`` wire frame.
    The Master records its own ``migration`` tree in the same tracer.
    ``trace_jsonl`` exports both for ``repro obs``.

    ``process_cluster`` boots every node in its own OS process
    (:class:`~repro.net.procs.ProcessClusterHarness`) instead of on one
    shared asyncio loop -- the Master and the verification twin are
    untouched, which is exactly the point: the three-phase migration
    must land byte-identical contents whether the bytes crossed a
    thread boundary or a process boundary.  Socket fault injection and
    the loop sanitizer instrument in-process servers, so neither
    composes with ``process_cluster``.
    """
    if nodes < 2:
        raise ConfigurationError("a live migration needs at least 2 nodes")
    if not 0 < retire < nodes:
        raise ConfigurationError(
            f"retire must be in [1, {nodes - 1}], got {retire}"
        )
    names = [f"live-{index:02d}" for index in range(nodes)]
    records = seed_records(items, value_bytes, seed)

    fault_policy = None
    if fault_schedule is not None:
        fault_policy = SocketFaultPolicy(fault_schedule)
    tracer = (telemetry or NULL_TELEMETRY).tracer
    harness: Any
    if process_cluster:
        if fault_policy is not None or sanitize:
            raise ConfigurationError(
                "process_cluster does not compose with socket fault "
                "injection or the loop sanitizer (both instrument "
                "in-process servers)"
            )
        from repro.net.procs import ProcessClusterHarness

        harness = ProcessClusterHarness(names, memory_per_node)
    else:
        harness = LiveClusterHarness(
            names,
            memory_per_node,
            fault_policy=fault_policy,
            telemetry=telemetry,
            metrics=telemetry.metrics if telemetry is not None else None,
            sanitize=sanitize,
        )
    started = time.monotonic()
    root = tracer.root("live_migration", nodes=nodes, retire=retire)

    with harness:
        live = LiveCluster(
            harness.endpoints,
            timeout_s=timeout_s,
            backoff_scale=backoff_scale,
            telemetry=telemetry,
            sanitize=sanitize,
        )

        def _join_clients(ctx: TraceContext | None) -> None:
            # Master runs on this thread while client I/O lives on the
            # cluster's loop thread; contextvars do not cross that
            # boundary, so phases join the trace via the clients'
            # explicit override attribute.
            for remote in live.nodes.values():
                remote.client.trace_context = ctx

        def _run_phase(name: str, work: Any) -> Any:
            span = root.child(name)
            _join_clients(span.context)
            try:
                return work()
            finally:
                _join_clients(None)
                span.end()

        try:
            owners = live.route_many([record.key for record in records])
            groups: dict[str, list[MigratedItem]] = {}
            for record, owner in zip(records, owners):
                groups.setdefault(owner, []).append(record)
            seeded = _run_phase(
                "seed", lambda: _seed_cluster(groups, live.nodes)
            )

            master = Master(live, telemetry=telemetry)
            # Choosing reads each node's metadata snapshot (stats, slab
            # stats, one ts_dump per class) that planning then reuses,
            # so it is part of the plan phase.
            plan = _run_phase(
                "plan",
                lambda: master.plan_scale_in(master.choose_retiring(retire)),
            )
            execute_started = time.monotonic()
            report = _run_phase("execute", lambda: master.execute(plan))
            degradation_window_s = round(
                time.monotonic() - execute_started, 3
            )

            result = LiveMigrationResult(
                node_names=names,
                retired=list(plan.retiring),
                membership_after=report.membership_after,
                outcome=report.outcome,
                items_seeded=seeded,
                items_exported=report.items_exported,
                items_imported=report.items_imported,
                completed_pairs=report.completed_pairs,
                failed_flows=len(report.failed_flows),
                wall_seconds=round(time.monotonic() - started, 3),
                degradation_window_s=degradation_window_s,
            )
            if verify:
                _verify_against_twin(
                    result, live, groups, plan.retiring, memory_per_node
                )
        finally:
            live.close()
    harness_sanitizer = getattr(harness, "sanitizer", None)
    if harness_sanitizer is not None:
        harness_sanitizer.check("live-harness loop")
    if live.sanitizer is not None:
        live.sanitizer.check("live-cluster loop")
    root.set(
        outcome=result.outcome,
        window_s=result.degradation_window_s or 0.0,
    )
    root.end()
    result.trace_spans = len(tracer.spans)
    if telemetry is not None and trace_jsonl is not None:
        write_jsonl(trace_jsonl, tracer, telemetry.metrics)
    result.wall_seconds = round(time.monotonic() - started, 3)
    return result


def _verify_against_twin(
    result: LiveMigrationResult,
    live: LiveCluster,
    groups: dict[str, list[MigratedItem]],
    retiring: list[str],
    memory_per_node: int,
) -> None:
    """Replay the migration in-process and compare final contents and
    each retained node's MRU order."""
    twin = MemcachedCluster(result.node_names, memory_per_node)
    _seed_cluster(groups, twin.nodes)
    twin_master = Master(twin)
    twin_report: MigrationReport = twin_master.execute(
        twin_master.plan_scale_in(list(retiring))
    )
    mismatched: list[str] = []
    for name in twin_report.membership_after:
        live_node = live.nodes.get(name)
        twin_node = twin.nodes.get(name)
        if live_node is None or twin_node is None:
            mismatched.append(name)
            continue
        live_node.refresh()
        same_items = node_signature(live_node) == node_signature(twin_node)
        if not same_items or mru_order(live_node) != mru_order(twin_node):
            mismatched.append(name)
    if sorted(result.membership_after) != sorted(
        twin_report.membership_after
    ):
        mismatched.append("<membership>")
    result.mismatched_nodes = mismatched
    result.verified = not mismatched

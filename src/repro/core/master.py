"""The ElMem Master (Sections III-A, III-C, III-D).

The Master is the lightweight central controller: it receives autoscaling
hints, picks which node(s) to retire via median-hotness scoring, and
orchestrates the three-phase migration:

1. **Metadata transfer** -- retiring Agents hash their keys against the
   *retained* membership and ship ``(key, timestamp)`` lists (not values)
   to their targets.
2. **Hotness comparison** -- each retained Agent runs FuseCache over the
   incoming per-slab lists plus its own, yielding exactly how many items
   to pull from each retiring node.
3. **Data migration** -- retiring Agents pipe the chosen KV pairs to the
   retained nodes, whose Agents batch-import them, evicting colder local
   items.

Planning (:meth:`Master.plan_scale_in` / :meth:`Master.plan_scale_out`)
is separated from execution (:meth:`Master.execute`) so the simulator can
compute the migration at decision time, let the cluster keep serving for
the migration's duration, and only then apply the membership switch --
matching the paper's timeline where ElMem scales ~2 minutes after the
baseline would have.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.agent import Agent
from repro.core.fusecache import fuse_cache_detailed
from repro.core.interfaces import CacheCluster
from repro.core.retry import RetryPolicy
from repro.core.scoring import choose_nodes_to_retire
from repro.errors import (
    ConfigurationError,
    MigrationAbortedError,
    MigrationError,
    TransportError,
)
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.cluster import MemcachedCluster
from repro.netsim.transfer import Flow, NetworkModel
from repro.obs import NULL_SPAN, NULL_TELEMETRY, Telemetry
from repro.wire import EXPORT_BATCH_KEYS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

IMPORT_RATE_ITEMS_S = 500_000.0
"""Modeled throughput of the batch-import command (local CPU/disk cost)."""

SCORING_TIME_PER_NODE_S = 0.2
"""Modeled cost of collecting median reports from one node."""

COMPARISON_TIME_S = 2e-6
"""Modeled cost per FuseCache timestamp comparison."""


@dataclass
class PhaseTimings:
    """Modeled wall-clock seconds per migration phase (paper V-B2).

    ``retry_s`` is filled in at *execution* time: backoff waits and the
    duration of failed flow attempts, which the paper's fault-free
    testbed never pays.
    """

    scoring_s: float = 0.0
    dump_s: float = 0.0
    metadata_transfer_s: float = 0.0
    fusecache_s: float = 0.0
    data_transfer_s: float = 0.0
    import_s: float = 0.0
    retry_s: float = 0.0

    @property
    def total_s(self) -> float:
        """End-to-end migration overhead: every field is one phase."""
        return sum(astuple(self))

    def breakdown(self) -> dict[str, float]:
        """Named phase durations, for the overhead-breakdown benchmark."""
        names = (
            "scoring", "hash_and_dump", "metadata_transfer", "fusecache",
            "data_migration", "import", "retries",
        )
        return dict(zip(names, astuple(self)), total=self.total_s)


@dataclass
class MigrationPlan:
    """A fully-computed migration, ready to execute.

    ``transfers[(src, dst)]`` lists the keys to move, hottest first.
    """

    kind: str  # "scale_in" | "scale_out"
    retiring: list[str]
    retained: list[str]
    new_nodes: list[str]
    transfers: dict[tuple[str, str], list[str]]
    timings: PhaseTimings
    import_mode: str | None = None  # overrides the Master's default
    # Keys each node deletes before imports arrive (Naive's room-making:
    # "the coldest x/n fraction of items of all nodes can be discarded").
    pre_deletes: dict[str, list[str]] = field(default_factory=dict)
    items_to_migrate: int = 0
    bytes_to_migrate: int = 0
    metadata_bytes: int = 0
    fusecache_rounds: int = 0
    fusecache_comparisons: int = 0
    # Telemetry span tree for this migration; NULL_SPAN when tracing is
    # off.  Opened at plan time, closed when execution finishes.
    span: object = field(default=NULL_SPAN, repr=False, compare=False)

    @property
    def duration_s(self) -> float:
        """Seconds from the scaling decision until membership can switch."""
        return self.timings.total_s


OUTCOME_WARM = "warm"
OUTCOME_PARTIAL = "partial"
OUTCOME_COLD = "cold"

# Phase-3 step kinds, in the order a plan expands into them.
PRE_DELETE = "pre_delete"
MOVE = "move"
SWITCH = "switch"

# What a move step came to.
COMPLETED = "completed"
FAILED = "failed"
SKIPPED = "skipped"
UNATTEMPTED = "unattempted"


@dataclass
class MigrationStep:
    """One phase-3 action: drop ``keys`` on ``src`` (``pre_delete``),
    ship ``keys`` from ``src`` to ``dst`` (``move``), or commit the new
    membership (``switch``)."""

    kind: str
    src: str = ""
    dst: str = ""
    keys: list[str] = field(default_factory=list)


@dataclass
class StepResult:
    """What one move step did; :meth:`MigrationReport.fold` sums these."""

    step: MigrationStep
    status: str = COMPLETED
    exported: int = 0
    imported: int = 0
    retries: int = 0
    retry_s: float = 0.0


def migration_steps(plan: MigrationPlan) -> list[MigrationStep]:
    """Pre-deletes, one move per pair in ``plan.transfers`` order, the switch."""
    pre = plan.pre_deletes.items()
    return (
        [MigrationStep(PRE_DELETE, name, keys=keys) for name, keys in pre]
        + [MigrationStep(MOVE, *pair, keys) for pair, keys in plan.transfers.items()]
        + [MigrationStep(SWITCH)]
    )


@dataclass
class MigrationReport:
    """What actually happened when a plan was executed.

    Under fault injection the report is the primary experimental output:
    it records every retry, every flow that failed for good, every pair
    skipped because a node died, and whether the scaling action completed
    ``"warm"`` (every planned pair moved), ``"partial"`` (some data
    arrived), or ``"cold"`` (the warm-up was lost but membership still
    switched -- the paper's baseline behaviour, correctness preserved).
    """

    plan: MigrationPlan
    items_exported: int = 0
    items_imported: int = 0
    membership_after: list[str] = field(default_factory=list)
    # (src, dst) pairs whose transfer was skipped because a node died
    # between planning and execution.
    skipped_pairs: list[tuple[str, str]] = field(default_factory=list)
    # (src, dst) pairs whose flow kept failing until retries ran out.
    failed_flows: list[tuple[str, str]] = field(default_factory=list)
    # (src, dst) pairs never attempted because the deadline fired first.
    unattempted_pairs: list[tuple[str, str]] = field(default_factory=list)
    completed_pairs: int = 0
    retries: int = 0
    retry_time_s: float = 0.0
    outcome: str = OUTCOME_WARM
    abort_reason: str | None = None
    executed_at: float = 0.0
    # Simulated seconds phase 3 actually took, retries and stalls included.
    actual_duration_s: float = 0.0

    @property
    def degraded(self) -> bool:
        """True unless every planned pair migrated cleanly."""
        return self.outcome != OUTCOME_WARM

    def fold(self, results: list[StepResult]) -> None:
        """Add move-step results to the counters, then set :attr:`outcome`."""
        lost = {
            FAILED: self.failed_flows,
            SKIPPED: self.skipped_pairs,
            UNATTEMPTED: self.unattempted_pairs,
        }
        for result in results:
            self.items_exported += result.exported
            self.items_imported += result.imported
            self.retries += result.retries
            self.retry_time_s += result.retry_s
            if result.status == COMPLETED:
                self.completed_pairs += 1
            else:
                lost[result.status].append((result.step.src, result.step.dst))
        self.outcome = self.classify()

    def classify(self) -> str:
        """Derive :attr:`outcome` from the recorded pair bookkeeping."""
        if not (self.skipped_pairs or self.failed_flows or self.unattempted_pairs):
            return OUTCOME_WARM
        if self.completed_pairs == 0:
            return OUTCOME_COLD
        return OUTCOME_PARTIAL


def _pin(span: Any, start: float, seconds: float, **attrs: Any) -> float:
    """Close a plan-phase span on the sim window ``[start, start + seconds]``.

    Planning does the real work first and models its cost after, so each
    phase's wall clock is measured live while its sim window is laid out
    sequentially from the decision time.  Returns the window's end.
    """
    span.end()
    span.sim_window(start, start + seconds)
    span.set(**attrs)
    return start + seconds


class Master:
    """Central migration coordinator for one Memcached cluster.

    Parameters
    ----------
    cluster:
        The Memcached tier to manage.
    network:
        Transfer-time model; defaults to a 1 Gbit fabric.
    import_mode:
        ``"merge"`` keeps MRU lists timestamp-sorted (default);
        ``"prepend"`` reproduces the paper's head insertion exactly.
    dump_rate_items_s:
        Modeled throughput of the timestamp-dump+hash command (local
        CPU/disk cost).
    retry_policy:
        Backoff schedule for failed data flows (phase 3).
    deadline_s:
        Budget for phase 3, measured from the moment :meth:`execute`
        starts.  Once retries, stalls, and timeouts push the modeled
        clock past it, the remaining warm-up is abandoned and the
        migration degrades to cold scaling (``on_deadline="degrade"``,
        the default) or raises
        :class:`~repro.errors.MigrationAbortedError`
        (``on_deadline="raise"``).  ``None`` disables the deadline.
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; consulted
        for node stalls and advanced as execution's modeled clock moves,
        so faults scheduled mid-migration land mid-migration.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When enabled, every
        planned migration records a span tree
        (``migration -> plan -> scoring/dump/fusecache`` at plan time,
        ``import``/per-pair/``switch`` at execution) plus counters and
        phase-duration histograms; disabled (the default) it is all
        no-ops.
    strict_mode:
        When true, a :class:`~repro.check.strict.StrictChecker` runs the
        cheap invariant validators after each migration phase: LRU-list
        integrity and slab accounting on every node a plan touches
        (plan and import phases), target-ring structure at plan time,
        and live-ring consistency after the membership switch.  A
        failing check raises
        :class:`~repro.errors.InvariantViolation` with a structured
        diff.  MRU timestamp-monotonicity is only enforced while every
        executed import has used ``merge`` mode -- ``prepend`` (the
        paper's head insertion) deliberately gives that ordering up.
    """

    def __init__(
        self,
        cluster: CacheCluster,
        network: NetworkModel | None = None,
        import_mode: str = "merge",
        dump_rate_items_s: float = 100_000.0,
        retry_policy: RetryPolicy | None = None,
        deadline_s: float | None = None,
        on_deadline: str = "degrade",
        fault_injector: "FaultInjector | None" = None,
        telemetry: Telemetry | None = None,
        strict_mode: bool = False,
    ) -> None:
        if on_deadline not in ("degrade", "raise"):
            raise ConfigurationError(
                f"on_deadline must be 'degrade' or 'raise', got {on_deadline!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")
        self.cluster = cluster
        self.network = network or NetworkModel()
        self.import_mode = import_mode
        self.dump_rate_items_s = dump_rate_items_s
        self.retry_policy = retry_policy or RetryPolicy()
        self.deadline_s = deadline_s
        self.on_deadline = on_deadline
        self.fault_injector = fault_injector
        self.telemetry = telemetry or NULL_TELEMETRY
        self.strict_mode = strict_mode
        self.strict_checker = None
        if strict_mode:
            if not isinstance(cluster, MemcachedCluster):
                raise ConfigurationError(
                    "strict_mode requires an in-process MemcachedCluster; "
                    "the invariant validators read private cache state a "
                    "live cluster cannot expose"
                )
            from repro.check.strict import StrictChecker

            self.strict_checker = StrictChecker(
                cluster, telemetry=self.telemetry
            )
        # Whether every MRU list is still timestamp-sorted: true until a
        # non-merge import lands, after which the sortedness invariant is
        # no longer checkable (the paper's prepend import gives it up).
        self._mru_sorted = True
        # Membership-change consumers (proxy routers, dashboards):
        # called with the post-switch member list after every migration.
        self._membership_listeners: list[Callable[[list[str]], None]] = []

    def subscribe_membership(
        self, listener: Callable[[list[str]], None]
    ) -> None:
        """Register a callback for post-switch membership changes.

        ``listener`` receives the sorted active member list after every
        executed migration's switch phase -- the hook a proxy tier uses
        to swap its routing ring the moment the Master commits a scale
        event.  Listeners are invoked synchronously in subscription
        order; a listener that raises aborts the migration report with
        its own exception (the switch itself has already committed), so
        listeners are expected to be robust.
        """
        self._membership_listeners.append(listener)

    def _notify_membership(self, members: list[str]) -> None:
        for listener in list(self._membership_listeners):
            listener(list(members))

    def agent(self, name: str) -> Agent:
        """The Agent on node ``name``."""
        return Agent(self.cluster.nodes[name])

    def _wire_bytes(self, src: str, keys: list[str]) -> int:
        """Current wire size of ``keys`` on ``src`` (evicted keys excluded)."""
        node = self.cluster.nodes[src]
        items = ((key, node.peek(key)) for key in keys)
        return sum(
            len(key) + item.value_size for key, item in items if item is not None
        )

    # ------------------------------------------------------------------
    # Q2: which nodes to retire
    # ------------------------------------------------------------------

    def choose_retiring(self, count: int) -> list[str]:
        """Pick ``count`` nodes with the coldest median-hotness scores."""
        return choose_nodes_to_retire(self.cluster.active_nodes, count)

    # ------------------------------------------------------------------
    # Planning (phases 1 and 2)
    # ------------------------------------------------------------------

    def plan_scale_in(
        self, retiring: list[str], include_scoring: bool = True, now: float = 0.0
    ) -> MigrationPlan:
        """Compute the three-phase migration for retiring ``retiring``.

        Runs phases 1 and 2 for real (metadata grouping + FuseCache) and
        *models* their wall-clock cost; phase 3 (the bulk data move) is
        deferred to :meth:`execute`.  ``now`` anchors the migration's
        telemetry span tree on the sim clock.
        """
        retained = self._retained_after(retiring)
        scoring_s = None
        if include_scoring:
            scoring_s = SCORING_TIME_PER_NODE_S * len(self.cluster.active_members)
        return self._plan("scale_in", sorted(retiring), retained, now, scoring_s)

    def plan_scale_out(
        self, new_names: list[str], now: float = 0.0
    ) -> MigrationPlan:
        """Compute the migration that warms ``new_names`` before activation.

        New nodes are provisioned (cold, off-ring) here.  Existing nodes
        hash their keys against the scaled-out membership; under
        consistent hashing only ~1/(k+1) of keys move, so normally *all*
        hashed pairs migrate (Section III-D4).  FuseCache trims the set
        only in the rare case it exceeds the new node's capacity.
        """
        if not new_names:
            raise MigrationError("no new nodes given")
        for name in new_names:
            if name in self.cluster.nodes:
                raise MigrationError(f"node {name!r} already exists")
        for name in new_names:
            self.cluster.provision(name)
        existing = sorted(self.cluster.active_members)
        return self._plan("scale_out", existing, list(new_names), now)

    def _retained_after(self, retiring: list[str]) -> list[str]:
        """Validate a retiring set; return the sorted members that stay."""
        active = set(self.cluster.active_members)
        unknown = [name for name in retiring if name not in active]
        if unknown:
            raise MigrationError(f"cannot retire inactive nodes: {unknown}")
        retained = sorted(active - set(retiring))
        if not retained:
            raise MigrationError("cannot retire every node")
        return retained

    def _plan(
        self,
        kind: str,
        sources: list[str],
        targets: list[str],
        now: float,
        scoring_s: float | None = None,
    ) -> MigrationPlan:
        """Phases 1 and 2 for either direction of scaling.

        ``sources`` dump and hash against the post-scaling ring and ship
        ``(key, timestamp)`` lists to ``targets`` -- the retained nodes
        of a scale-in, the (already provisioned) new nodes of a
        scale-out.  Selection is the one policy difference: a scale-in
        target runs FuseCache over the incoming lists plus its own; a
        scale-out target takes everything unless it overflows the slab
        class, and only then runs FuseCache over the incoming lists.
        """
        scale_in = kind == "scale_in"
        if scale_in:
            plan = MigrationPlan(kind, sources, targets, [], {}, PhaseTimings())
            moving = {"retiring": plan.retiring}
        else:
            plan = MigrationPlan(kind, [], sources, sorted(targets), {}, PhaseTimings())
            moving = {"new_nodes": plan.new_nodes}
        plan_span = self._open_trace(plan, now, **moving, retained=plan.retained)
        target_ring = ConsistentHashRing(plan.retained + plan.new_nodes)
        timings = plan.timings
        cursor = now
        if scoring_s is not None:
            timings.scoring_s = scoring_s
            cursor = _pin(plan_span.child("scoring"), cursor, scoring_s)

        # Phase 1: sources dump, hash, and ship metadata.
        # incoming[dst][class_id] = [(src, [(key, ts), ...]), ...]
        dump_span = plan_span.child("dump")
        incoming: dict[str, dict[int, list[tuple[str, list[tuple[str, float]]]]]]
        incoming = {name: {} for name in targets}
        metadata_flows: list[Flow] = []
        for src in sources:
            agent = self.agent(src)
            grouped = agent.dump_and_hash(target_ring)
            timings.dump_s = max(
                timings.dump_s, len(agent.node) / self.dump_rate_items_s
            )
            for dst, per_class in grouped.items():
                if dst not in incoming:
                    # Ketama can slightly reshuffle among existing nodes
                    # on a scale-out; those keys re-warm on miss.
                    continue
                if scale_in:
                    # Only scale-in prices the metadata transfer.
                    size = Agent.metadata_bytes(per_class)
                    plan.metadata_bytes += size
                    if size > 0:
                        metadata_flows.append(Flow(src, dst, size))
                for class_id, entries in per_class.items():
                    incoming[dst].setdefault(class_id, []).append(
                        (src, entries)
                    )
        timings.metadata_transfer_s = self.network.phase_time(metadata_flows)
        cursor = _pin(
            dump_span,
            cursor,
            timings.dump_s + timings.metadata_transfer_s,
            dump_s=timings.dump_s,
            metadata_transfer_s=timings.metadata_transfer_s,
            metadata_bytes=plan.metadata_bytes,
        )

        # Phase 2: each target picks per slab class.
        fusecache_span = plan_span.child("fusecache")
        for dst in targets:
            dst_agent = self.agent(dst)
            for class_id, offers in incoming[dst].items():
                lists = [[ts for _, ts in entries] for _, entries in offers]
                capacity = dst_agent.slab_capacity_items(class_id)
                if scale_in:
                    lists.append(dst_agent.sorted_timestamps(class_id))
                    capacity = capacity or sum(len(lst) for lst in lists)
                    trim = True
                else:
                    trim = 0 < capacity < sum(len(lst) for lst in lists)
                picks = [len(lst) for lst in lists]
                if trim:
                    result = fuse_cache_detailed(lists, capacity)
                    plan.fusecache_rounds += result.rounds
                    plan.fusecache_comparisons += result.comparisons
                    picks = result.topick
                for (src, entries), take in zip(offers, picks):
                    if take > 0:
                        plan.transfers.setdefault((src, dst), []).extend(
                            key for key, _ in entries[:take]
                        )
        timings.fusecache_s = plan.fusecache_comparisons * COMPARISON_TIME_S
        cursor = _pin(
            fusecache_span,
            cursor,
            timings.fusecache_s,
            rounds=plan.fusecache_rounds,
            comparisons=plan.fusecache_comparisons,
        )
        return self._finish_plan(plan, target_ring, plan_span, cursor)

    # ------------------------------------------------------------------
    # Naive fraction-based planning (Section V-B4 comparison)
    # ------------------------------------------------------------------

    def plan_fraction_scale_in(
        self, retiring: list[str], keep_fraction: float, now: float = 0.0
    ) -> MigrationPlan:
        """Plan the *Naive* migration: hottest ``keep_fraction`` of each
        retiring node's items, regardless of the targets' contents.

        No metadata exchange and no FuseCache -- Naive assumes the hotness
        distribution is identical across every node, so "the coldest
        ``1 - keep_fraction`` fraction of items of all nodes can be
        discarded" (Section V-B4): victims ship their hottest
        ``keep_fraction``, and every *retained* node pre-deletes its own
        coldest ``1 - keep_fraction`` to make room.  When node
        temperatures actually differ, a hot retained node throws away
        items that are hotter than the junk it receives -- the failure
        mode Fig. 8 demonstrates.
        """
        if not 0.0 <= keep_fraction <= 1.0:
            raise MigrationError(
                f"keep_fraction must be in [0, 1], got {keep_fraction}"
            )
        retained = self._retained_after(retiring)
        target_ring = ConsistentHashRing(retained)
        plan = MigrationPlan(
            "scale_in", sorted(retiring), retained, [], {}, PhaseTimings()
        )
        plan_span = self._open_trace(
            plan,
            now,
            strategy="fraction",
            retiring=plan.retiring,
            keep_fraction=keep_fraction,
        )
        dump_span = plan_span.child("dump")
        timings = plan.timings
        for src in plan.retiring:
            node = self.cluster.nodes[src]
            timings.dump_s = max(timings.dump_s, len(node) / self.dump_rate_items_s)
            for class_id in node.active_class_ids():
                items = node.items_in_mru_order(class_id)
                for item in items[: int(len(items) * keep_fraction)]:
                    dst = target_ring.node_for_key(item.key)
                    plan.transfers.setdefault((src, dst), []).append(item.key)
        # Room-making under the uniform-hotness assumption: every
        # retained node drops its own coldest (1 - keep_fraction).
        for name in retained:
            node = self.cluster.nodes[name]
            doomed: list[str] = []
            for class_id in node.active_class_ids():
                items = node.items_in_mru_order(class_id)
                keep = int(len(items) * keep_fraction)
                doomed.extend(item.key for item in items[keep:])
            if doomed:
                plan.pre_deletes[name] = doomed
        cursor = _pin(
            dump_span,
            now,
            timings.dump_s,
            dump_s=timings.dump_s,
            metadata_transfer_s=0.0,
            metadata_bytes=0,
        )
        return self._finish_plan(plan, target_ring, plan_span, cursor)

    def _open_trace(self, plan: MigrationPlan, now: float, **attrs: Any) -> Any:
        """Open ``plan``'s ``migration`` root span; return its ``plan`` child."""
        plan.span = self.telemetry.tracer.root(
            "migration", sim_s=now, kind=plan.kind, **attrs
        )
        return plan.span.child("plan", sim_s=now)

    def _finish_plan(
        self,
        plan: MigrationPlan,
        target_ring: ConsistentHashRing,
        plan_span: Any,
        cursor: float,
    ) -> MigrationPlan:
        """Price phase 3, close the plan trace at ``cursor`` on the sim
        clock, and (strict mode) check planning left every structure
        intact."""
        data_flows: list[Flow] = []
        import_load: dict[str, int] = {}
        for (src, dst), keys in plan.transfers.items():
            size = self._wire_bytes(src, keys)
            plan.items_to_migrate += len(keys)
            plan.bytes_to_migrate += size
            import_load[dst] = import_load.get(dst, 0) + len(keys)
            if size > 0:
                data_flows.append(Flow(src, dst, size))
        timings = plan.timings
        timings.data_transfer_s = self.network.phase_time(data_flows)
        busiest_import = max(import_load.values(), default=0)
        timings.import_s = busiest_import / IMPORT_RATE_ITEMS_S
        plan_span.end(sim_s=cursor)
        plan.span.set(
            items_to_migrate=plan.items_to_migrate,
            bytes_to_migrate=plan.bytes_to_migrate,
            pairs=len(plan.transfers),
        )
        metrics = self.telemetry.metrics
        metrics.counter(
            "migrations_planned_total",
            "Migration plans computed",
            kind=plan.kind,
        ).inc()
        metrics.counter(
            "fusecache_comparisons_total",
            "Timestamp comparisons spent in FuseCache",
        ).inc(plan.fusecache_comparisons)
        checker = self.strict_checker
        if checker is not None:
            names = plan.retiring + plan.retained + plan.new_nodes
            checker.check_nodes("plan", names, require_sorted=self._mru_sorted)
            checker.check_target_ring("plan", target_ring)
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, plan: MigrationPlan, now: float = 0.0) -> MigrationReport:
        """Run phase 3 resiliently and switch membership.

        The plan expands into :func:`migration_steps` -- pre-deletes, one
        move per (src, dst) pair, the switch -- run in order, each priced
        on the modeled clock before the next starts.  Keys evicted since
        planning are skipped (the protocol tolerates drift between the
        metadata snapshot and the data move).  Each move's data flow
        runs under the fault model: failed flows are retried per
        :attr:`retry_policy` with modeled backoff, node stalls stretch
        dump/import time, and everything is charged against
        :attr:`deadline_s`.  When the deadline fires, remaining moves
        are abandoned and the scaling action completes cold --
        membership still switches, because a late warm-up must never
        block the resize itself.  For scale-in, retiring nodes are
        destroyed after the switch; for scale-out, the new nodes are
        activated after their import.
        """
        mode = plan.import_mode or self.import_mode
        report = MigrationReport(plan=plan, executed_at=now)
        clock = now
        deadline = None if self.deadline_s is None else now + self.deadline_s
        import_span = plan.span.child("import", sim_s=clock, mode=mode)
        self._advance_faults(import_span, clock)
        results: list[StepResult] = []
        for step in migration_steps(plan):
            if step.kind == PRE_DELETE:
                self._pre_delete(step, clock, import_span)
            elif step.kind == SWITCH:
                self._switch(report, results, mode, clock, import_span)
            elif report.abort_reason is not None:
                results.append(StepResult(step, UNATTEMPTED))
            else:
                self._advance_faults(import_span, clock)
                result, clock = self._move(step, mode, clock, import_span)
                results.append(result)
                if deadline is not None and clock >= deadline:
                    report.abort_reason = (
                        f"deadline of {self.deadline_s:.1f}s exceeded "
                        f"{clock - now:.1f}s into phase 3 "
                        f"(pair {step.src} -> {step.dst})"
                    )
                    import_span.event(
                        "deadline_exceeded", sim_s=clock,
                        deadline_s=self.deadline_s,
                    )
        return report

    def _pre_delete(self, step: MigrationStep, clock: float, span: Any) -> None:
        """Naive's room-making on one node; best effort."""
        node = self.cluster.nodes.get(step.src)
        if node is None:
            return
        try:
            for key in step.keys:
                node.delete(key)
        except TransportError as exc:
            # Room-making is an optimisation; an unreachable node keeps
            # its cold items and the migration proceeds.
            span.event(
                "pre_delete_failed", sim_s=clock, node=step.src,
                error=str(exc),
            )

    def _move(
        self, step: MigrationStep, mode: str, clock: float, parent_span: Any
    ) -> tuple[StepResult, float]:
        """Move one (src, dst) pair under the fault model; returns its
        result and the modeled clock after the attempt(s)."""
        src, dst, keys = step.src, step.dst, step.keys
        nodes = self.cluster.nodes
        result = StepResult(step)
        # A node lost between planning and execution degrades the
        # migration to a partial warm-up rather than failing it: the
        # scaling action must still complete (Section III-D's protocol
        # tolerates snapshot drift).
        if src not in nodes or dst not in nodes:
            result.status = SKIPPED
            parent_span.event(
                "pair_skipped", sim_s=clock, src=src, dst=dst,
                reason="node lost before execution",
            )
            return result, clock
        metrics = self.telemetry.metrics
        pair_span = parent_span.child(
            "pair", sim_s=clock, src=src, dst=dst, keys=len(keys)
        )
        size = self._wire_bytes(src, keys)
        flow = Flow(src, dst, size) if size > 0 else None
        attempt = None
        failures = 0
        while flow is not None:
            attempt = self.network.attempt_flow(flow, now=clock)
            if attempt.ok:
                break
            failures += 1
            clock += attempt.duration_s
            result.retry_s += attempt.duration_s
            pair_span.event(
                "flow_failed", sim_s=clock, error=attempt.error,
                attempt=failures,
            )
            if failures >= self.retry_policy.max_attempts:
                result.status = FAILED
                break
            backoff = self.retry_policy.backoff_s(failures)
            result.retries += 1
            result.retry_s += backoff
            clock += backoff
            pair_span.event("retry", sim_s=clock, backoff_s=backoff)
            metrics.counter(
                "migration_retries_total",
                "Data-flow retries during migrations",
            ).inc()
            # Let faults scheduled during the backoff window land before
            # the retry (a crashed endpoint fails the pair).
            self._advance_faults(pair_span, clock)
            if src not in nodes or dst not in nodes:
                result.status = SKIPPED
                break
        if result.status == COMPLETED:
            # The flow went through: dump, transfer and import, with node
            # stalls stretching the modeled local durations.
            dump_factor = import_factor = 1.0
            if self.fault_injector is not None:
                dump_factor = self.fault_injector.rate_factor(src, clock)
                import_factor = self.fault_injector.rate_factor(dst, clock)
            clock += Agent.local_seconds(len(keys), self.dump_rate_items_s, dump_factor)
            if attempt is not None:
                clock += attempt.duration_s
            try:
                self._relay(step, mode, clock, result)
            except TransportError as exc:
                # A live (socket-backed) pair whose transport retries ran
                # out degrades exactly like an exhausted simulated flow;
                # the batches that landed before the failure still count.
                result.status = FAILED
                failures += 1
                pair_span.event("transport_failed", sim_s=clock, error=str(exc))
                metrics.counter(
                    "migration_transport_failures_total",
                    "Live data flows lost to exhausted transport retries",
                ).inc()
            else:
                clock += Agent.local_seconds(
                    result.imported, IMPORT_RATE_ITEMS_S, import_factor
                )
        if result.status == COMPLETED:
            pair_span.set(outcome=COMPLETED, items=result.imported, bytes=size)
        else:
            pair_span.set(outcome=result.status, attempts=failures)
        pair_span.end(sim_s=clock)
        return result, clock

    def _relay(
        self, step: MigrationStep, mode: str, clock: float, result: StepResult
    ) -> None:
        """Ship ``step``'s keys one wire batch at a time, adding each
        batch to ``result`` as it lands.

        Each slice of :data:`~repro.wire.EXPORT_BATCH_KEYS` keys is
        exported and imported before the next is read, so the
        controller, the source's ``mig_export`` reply and the target's
        ``batch_import`` request each hold one batch, however large the
        pair.
        """
        source = self.cluster.nodes[step.src]
        target = self.cluster.nodes[step.dst]
        keys = step.keys
        for start in range(0, len(keys), EXPORT_BATCH_KEYS):
            migrated = source.export_items(keys[start : start + EXPORT_BATCH_KEYS])
            result.exported += len(migrated)
            result.imported += target.batch_import(migrated, mode=mode, now=clock)

    def _switch(
        self,
        report: MigrationReport,
        results: list[StepResult],
        mode: str,
        clock: float,
        import_span: Any,
    ) -> None:
        """Fold the move results into ``report``, then switch membership
        (unless the deadline fired under ``on_deadline="raise"``)."""
        plan = report.plan
        cluster = self.cluster
        import_span.end(sim_s=clock)
        report.fold(results)
        report.actual_duration_s = clock - report.executed_at
        plan.timings.retry_s += report.retry_time_s
        if mode != "merge" and report.items_imported > 0:
            self._mru_sorted = False
        if self.strict_checker is not None:
            targets = {dst for (_, dst) in plan.transfers}
            targets.update(plan.pre_deletes)
            self.strict_checker.check_nodes(
                "import", sorted(targets), require_sorted=self._mru_sorted
            )
        if report.abort_reason is not None and self.on_deadline == "raise":
            self._finish_migration_trace(report, clock)
            raise MigrationAbortedError(report.abort_reason)
        switch_span = plan.span.child("switch", sim_s=clock)
        if plan.kind == "scale_in":
            retained = [name for name in plan.retained if name in cluster.nodes]
            if not retained:
                switch_span.end(sim_s=clock)
                self._finish_migration_trace(report, clock)
                raise MigrationError("no retained node survived until execution")
            cluster.set_membership(retained)
            for name in plan.retiring:
                if name in cluster.nodes:
                    cluster.destroy(name)
        else:
            for name in plan.new_nodes:
                if name in cluster.nodes:
                    cluster.activate(name)
        report.membership_after = sorted(cluster.active_members)
        self._notify_membership(report.membership_after)
        switch_span.set(membership=report.membership_after)
        switch_span.end(sim_s=clock)
        self._finish_migration_trace(report, clock)
        if self.strict_checker is not None:
            self.strict_checker.check_cluster_ring("switch")

    def _advance_faults(self, span: Any, clock: float) -> None:
        """Advance the fault injector to ``clock``; faults that land
        mid-migration become span events."""
        if self.fault_injector is None:
            return
        for applied in self.fault_injector.advance(clock):
            span.event(
                "fault", sim_s=clock, kind=applied.spec.kind,
                detail=applied.detail,
            )

    def _finish_migration_trace(self, report: MigrationReport, clock: float) -> None:
        """Close the migration's root span and flush its metrics."""
        span = report.plan.span
        span.set(
            outcome=report.outcome,
            items_exported=report.items_exported,
            items_imported=report.items_imported,
            completed_pairs=report.completed_pairs,
            retries=report.retries,
            failed_flows=len(report.failed_flows),
            skipped_pairs=len(report.skipped_pairs),
            unattempted_pairs=len(report.unattempted_pairs),
        )
        if report.abort_reason:
            span.set(abort_reason=report.abort_reason)
        span.end(sim_s=clock)
        metrics = self.telemetry.metrics
        metrics.counter(
            "migrations_executed_total",
            "Executed migrations by final outcome",
            kind=report.plan.kind,
            outcome=report.outcome,
        ).inc()
        metrics.counter(
            "migration_items_imported_total",
            "Items installed by batch imports during migrations",
        ).inc(report.items_imported)
        for phase, seconds in report.plan.timings.breakdown().items():
            metrics.histogram(
                "migration_phase_seconds",
                "Modeled seconds per migration phase",
                phase=phase,
            ).observe(seconds)

    def abort_scale_out(self, plan: MigrationPlan) -> None:
        """Tear down nodes provisioned by an unexecuted scale-out plan."""
        for name in plan.new_nodes:
            if name in self.cluster.nodes and name not in self.cluster.ring:
                self.cluster.destroy(name)
        plan.span.set(outcome="aborted")
        plan.span.end()

    # ------------------------------------------------------------------
    # Re-planning around dead nodes
    # ------------------------------------------------------------------

    def replan(self, plan: MigrationPlan) -> MigrationPlan | None:
        """Adapt ``plan`` to nodes that died since it was computed.

        Returns the plan unchanged when every referenced node is still
        alive.  Otherwise phases 1 and 2 re-run against the surviving
        membership so data flows target live nodes: dead *retiring*
        nodes are simply dropped (their data is gone either way), and a
        scale-out re-plans over its surviving, already provisioned new
        nodes.  Returns ``None`` when nothing is left to do -- e.g. every
        node being added by a scale-out died before activation.
        """
        live = set(self.cluster.nodes)
        if set(plan.retiring) | set(plan.retained) | set(plan.new_nodes) <= live:
            return plan
        active = set(self.cluster.active_members)
        if plan.kind == "scale_in":
            retiring = [name for name in plan.retiring if name in active]
            if not retiring or not active - set(retiring):
                return None
            fresh = self.plan_scale_in(retiring, include_scoring=False)
        else:
            new_nodes = [name for name in plan.new_nodes if name in live]
            if not new_nodes:
                return None
            fresh = self._plan("scale_out", sorted(active), new_nodes, 0.0)
        fresh.import_mode = plan.import_mode
        plan.span.set(outcome="replanned")
        plan.span.end()
        return fresh

"""Migration policies compared in the paper's evaluation (Section V).

A policy is *how the tier reacts to a scaling decision*:

- :class:`BaselinePolicy` -- scale immediately, migrate nothing (the red
  line of Fig. 2; also how Amazon ElastiCache behaves).
- :class:`ElMemPolicy` -- plan the FuseCache migration at decision time,
  keep serving on the old membership while data moves, and switch
  membership once migration completes (~2 min later).
- :class:`NaivePolicy` -- migrate the hottest ``(n-x)/n`` fraction off
  ``x`` *randomly chosen* nodes, assuming hotness is identically
  distributed across nodes (Section V-B4).
- :class:`CacheScalePolicy` -- switch membership immediately but keep the
  old owners as a *secondary cache*: primary misses retry there and hits
  are migrated on access; secondaries are discarded after a deadline
  (Hwang & Wood, CacheScale).

All policies share ElMem's answers to Q1/Q2 (when/which) except Naive,
which picks nodes at random -- exactly the comparison the paper makes.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.interfaces import CacheCluster
from repro.core.master import Master, MigrationPlan, MigrationReport
from repro.errors import MigrationError
from repro.hashing.ketama import ConsistentHashRing


@dataclass
class MultigetResult:
    """Cache-tier answer for one web request's key batch.

    ``hit_count`` counts *lookups* that hit, so a key requested twice in
    one batch contributes two hits; the ``hits`` dict keeps one value per
    distinct key.
    """

    hits: dict[str, Any] = field(default_factory=dict)
    misses: list[str] = field(default_factory=list)
    secondary_hits: int = 0
    hit_count: int = 0


@dataclass
class ScalingEvent:
    """Audit-trail entry recorded by a policy."""

    time: float
    kind: str
    detail: str


class MigrationPolicy(ABC):
    """Strategy invoked by the simulator around scaling actions."""

    name = "abstract"

    def __init__(self) -> None:
        self.cluster: CacheCluster | None = None
        self.master: Master | None = None
        self.rng = random.Random(0)
        self.events: list[ScalingEvent] = []
        self.reports: list[MigrationReport] = []
        self._node_counter = 0

    def bind(
        self,
        cluster: CacheCluster,
        master: Master,
        rng: random.Random | None = None,
    ) -> None:
        """Attach the policy to a cluster/master pair before simulation."""
        self.cluster = cluster
        self.master = master
        if rng is not None:
            self.rng = rng
        self._node_counter = len(cluster.nodes)

    # -- hooks ----------------------------------------------------------

    @abstractmethod
    def on_scale_decision(self, target_nodes: int, now: float) -> None:
        """React to a decision to resize the tier to ``target_nodes``."""

    def tick(self, now: float) -> None:
        """Advance background work (pending switches, secondary expiry)."""

    @property
    def pending(self) -> bool:
        """True while a scaling action is still in flight."""
        return False

    def multiget(self, keys: Iterable[str], now: float) -> MultigetResult:
        """Look up a key batch; the default routes via the active ring.

        Served through the cluster's batched ``get_many`` fast path.
        Hit/miss composition, ordering, and duplicate-key accounting are
        bit-identical to :meth:`multiget_serial`.
        """
        assert self.cluster is not None
        result = MultigetResult()
        keys = list(keys)
        for key, value in zip(keys, self.cluster.get_many(keys, now)):
            if value is None:
                result.misses.append(key)
            else:
                result.hits[key] = value
                result.hit_count += 1
        return result

    def multiget_serial(
        self, keys: Iterable[str], now: float
    ) -> MultigetResult:
        """Per-key reference implementation of :meth:`multiget`.

        Kept as the equivalence oracle for the batched fast path (and
        selectable via ``ExperimentConfig.batched_ops=False``).
        """
        assert self.cluster is not None
        result = MultigetResult()
        for key in keys:
            value = self.cluster.get(key, now)
            if value is None:
                result.misses.append(key)
            else:
                result.hits[key] = value
                result.hit_count += 1
        return result

    def fill(self, key: str, value: Any, value_size: int, now: float) -> None:
        """Insert a DB-fetched pair into the cache (read-through fill)."""
        assert self.cluster is not None
        self.cluster.set(key, value, value_size, now)

    def fill_many(
        self, entries: Iterable[tuple[str, Any, int]], now: float
    ) -> None:
        """Batched read-through fill of ``(key, value, value_size)``.

        Per-node insertion order follows ``entries`` order, so the cache
        ends up bit-identical to per-pair :meth:`fill` calls.
        """
        assert self.cluster is not None
        self.cluster.set_many(entries, now)

    # -- helpers ---------------------------------------------------------

    def _log(self, now: float, kind: str, detail: str) -> None:
        self.events.append(ScalingEvent(now, kind, detail))

    def _new_node_names(self, count: int) -> list[str]:
        assert self.cluster is not None
        names = []
        while len(names) < count:
            candidate = f"node-{self._node_counter:03d}"
            self._node_counter += 1
            if candidate not in self.cluster.nodes:
                names.append(candidate)
        return names

    def _split_decision(self, target_nodes: int) -> int:
        assert self.cluster is not None
        if target_nodes < 1:
            raise MigrationError("target_nodes must be >= 1")
        return target_nodes - len(self.cluster.active_members)


class BaselinePolicy(MigrationPolicy):
    """Scale immediately with no data movement (cold caches)."""

    name = "baseline"

    def on_scale_decision(self, target_nodes: int, now: float) -> None:
        assert self.cluster is not None and self.master is not None
        delta = self._split_decision(target_nodes)
        if delta == 0:
            return
        if delta < 0:
            retiring = self.master.choose_retiring(-delta)
            retained = sorted(
                set(self.cluster.active_members) - set(retiring)
            )
            self.cluster.set_membership(retained)
            for name in retiring:
                self.cluster.destroy(name)
            self._log(now, "scale_in", f"retired {retiring} immediately")
        else:
            names = self._new_node_names(delta)
            for name in names:
                self.cluster.provision(name)
                self.cluster.activate(name)
            self._log(now, "scale_out", f"added cold nodes {names}")


class ElMemPolicy(MigrationPolicy):
    """The paper's system: FuseCache migration before the switch."""

    name = "elmem"

    def __init__(self) -> None:
        super().__init__()
        self._pending: tuple[float, MigrationPlan] | None = None

    @property
    def pending(self) -> bool:
        return self._pending is not None

    def on_scale_decision(self, target_nodes: int, now: float) -> None:
        assert self.cluster is not None and self.master is not None
        if self._pending is not None:
            self._log(now, "skipped", "migration already in flight")
            return
        delta = self._split_decision(target_nodes)
        if delta == 0:
            return
        if delta < 0:
            retiring = self.master.choose_retiring(-delta)
            plan = self.master.plan_scale_in(retiring, now=now)
            self._log(
                now,
                "plan_scale_in",
                f"retiring {retiring}, {plan.items_to_migrate} items, "
                f"{plan.duration_s:.1f}s migration",
            )
        else:
            names = self._new_node_names(delta)
            plan = self.master.plan_scale_out(names, now=now)
            self._log(
                now,
                "plan_scale_out",
                f"adding {names}, {plan.items_to_migrate} items, "
                f"{plan.duration_s:.1f}s migration",
            )
        self._pending = (now + plan.duration_s, plan)

    def tick(self, now: float) -> None:
        if self._pending is None:
            return
        due, plan = self._pending
        if now < due:
            return
        assert self.master is not None
        # Nodes may have died between the decision and now; re-plan the
        # migration around the survivors rather than shipping data to
        # (or from) ghosts.
        adapted = self.master.replan(plan)
        if adapted is None:
            self._pending = None
            if plan.kind == "scale_out":
                self.master.abort_scale_out(plan)
            else:
                plan.span.set(outcome="dropped")
                plan.span.end(sim_s=now)
            self._log(
                now,
                "replan_dropped",
                f"{plan.kind} obsolete: referenced nodes died; "
                f"membership {sorted(self.cluster.active_members)}",  # type: ignore[union-attr]
            )
            return
        if adapted is not plan:
            self._log(
                now,
                "replanned",
                f"{plan.kind} re-planned around dead nodes: "
                f"{adapted.items_to_migrate} items remain",
            )
            plan = adapted
        report = self.master.execute(plan, now=now)
        self.reports.append(report)
        self._pending = None
        detail = (
            f"{plan.kind} [{report.outcome}]: imported "
            f"{report.items_imported} items, "
            f"membership {report.membership_after}"
        )
        if report.retries:
            detail += f", {report.retries} retries"
        if report.failed_flows:
            detail += f", {len(report.failed_flows)} failed flows"
        if report.skipped_pairs:
            detail += f", {len(report.skipped_pairs)} skipped pairs"
        if report.abort_reason:
            detail += f", aborted: {report.abort_reason}"
        self._log(now, "executed", detail)


class NaivePolicy(MigrationPolicy):
    """Fraction-based migration off randomly chosen nodes (Section V-B4).

    When scaling in ``x`` of ``n`` nodes it assumes hotness is uniform
    across nodes, migrates the hottest ``(n-x)/n`` fraction of each random
    victim's items, and lets the batch import evict whatever falls off the
    retained nodes' tails -- possibly hot data, which is its failure mode.
    """

    name = "naive"

    def __init__(self) -> None:
        super().__init__()
        self._pending: tuple[float, MigrationPlan] | None = None

    @property
    def pending(self) -> bool:
        return self._pending is not None

    def on_scale_decision(self, target_nodes: int, now: float) -> None:
        assert self.cluster is not None and self.master is not None
        if self._pending is not None:
            return
        delta = self._split_decision(target_nodes)
        if delta == 0:
            return
        if delta > 0:
            # Naive has no warm-up story; behave like the baseline.
            names = self._new_node_names(delta)
            for name in names:
                self.cluster.provision(name)
                self.cluster.activate(name)
            self._log(now, "scale_out", f"added cold nodes {names}")
            return
        active = sorted(self.cluster.active_members)
        retiring = self.rng.sample(active, -delta)
        keep_fraction = (len(active) + delta) / len(active)
        plan = self.master.plan_fraction_scale_in(
            retiring, keep_fraction, now=now
        )
        # A naive dump-and-set migration does not carry MRU timestamps:
        # imported pairs land with fresh hotness (see batch_import).
        plan.import_mode = "fresh"
        self._pending = (now + plan.duration_s, plan)
        self._log(
            now,
            "plan_scale_in",
            f"random victims {sorted(retiring)}, keep {keep_fraction:.2f}, "
            f"{plan.items_to_migrate} items",
        )

    def tick(self, now: float) -> None:
        if self._pending is None:
            return
        due, plan = self._pending
        if now < due:
            return
        assert self.master is not None
        report = self.master.execute(plan, now=now)
        self.reports.append(report)
        self._pending = None
        self._log(now, "executed", f"imported {report.items_imported}")


class CacheScalePolicy(MigrationPolicy):
    """Passive request-driven migration with a secondary cache.

    Membership switches immediately; old owners are kept as a *secondary*
    tier.  A primary miss retries at the key's pre-scaling owner and, on
    a hit there, the pair is migrated to its new owner.  Secondaries are
    discarded ``discard_after_s`` seconds after the switch (the paper sets
    this to ElMem's ~2-minute overhead for a fair comparison).
    """

    name = "cachescale"

    def __init__(self, discard_after_s: float = 120.0) -> None:
        super().__init__()
        self.discard_after_s = discard_after_s
        self._secondary_ring: ConsistentHashRing | None = None
        self._secondary_only: set[str] = set()
        self._discard_at: float | None = None
        self.secondary_hits = 0
        self.secondary_misses = 0

    @property
    def pending(self) -> bool:
        return self._secondary_ring is not None

    def on_scale_decision(self, target_nodes: int, now: float) -> None:
        assert self.cluster is not None and self.master is not None
        if self._secondary_ring is not None:
            self._discard_secondaries(now)
        delta = self._split_decision(target_nodes)
        if delta == 0:
            return
        old_ring = self.cluster.ring
        old_members = sorted(old_ring.members)
        if delta < 0:
            retiring = self.master.choose_retiring(-delta)
            retained = sorted(set(old_members) - set(retiring))
            self.cluster.set_membership(retained)
            self._secondary_only = set(retiring)
            self._log(
                now, "scale_in", f"retired {retiring}; kept as secondary"
            )
        else:
            names = self._new_node_names(delta)
            for name in names:
                self.cluster.provision(name)
                self.cluster.activate(name)
            self._secondary_only = set()
            self._log(
                now, "scale_out", f"added {names}; old ring is secondary"
            )
        self._secondary_ring = old_ring
        self._discard_at = now + self.discard_after_s

    def tick(self, now: float) -> None:
        if self._discard_at is not None and now >= self._discard_at:
            self._discard_secondaries(now)

    def multiget(self, keys: Iterable[str], now: float) -> MultigetResult:
        assert self.cluster is not None
        result = MultigetResult()
        for key in keys:
            primary = self.cluster.route(key)
            value = self.cluster.nodes[primary].get(key, now)
            if value is not None:
                result.hits[key] = value
                result.hit_count += 1
                continue
            migrated = self._try_secondary(key, primary, now)
            if migrated is not None:
                result.hits[key] = migrated
                result.hit_count += 1
                result.secondary_hits += 1
            else:
                result.misses.append(key)
        return result

    # The lookup path is inherently per-key (secondary probing with
    # on-hit migration), so the serial and batched paths coincide.
    multiget_serial = multiget

    # -- internals -------------------------------------------------------

    def _try_secondary(
        self, key: str, primary: str, now: float
    ) -> Any | None:
        if self._secondary_ring is None:
            return None
        old_owner = self._secondary_ring.node_for_key(key)
        if old_owner == primary:
            return None
        if self._secondary_only and old_owner not in self._secondary_only:
            return None
        node = self.cluster.nodes.get(old_owner) if self.cluster else None
        if node is None:
            return None
        item = node.peek(key)
        if item is None:
            self.secondary_misses += 1
            return None
        value, value_size = item.value, item.value_size
        node.delete(key)
        assert self.cluster is not None
        self.cluster.nodes[primary].set(key, value, value_size, now)
        self.secondary_hits += 1
        return value

    def _discard_secondaries(self, now: float) -> None:
        assert self.cluster is not None
        for name in sorted(self._secondary_only):
            if name in self.cluster.nodes:
                self.cluster.destroy(name)
        self._secondary_only = set()
        self._secondary_ring = None
        self._discard_at = None
        self._log(now, "discard", "secondary cache dropped")


POLICY_REGISTRY = {
    "baseline": BaselinePolicy,
    "elmem": ElMemPolicy,
    "naive": NaivePolicy,
    "cachescale": CacheScalePolicy,
}


def make_policy(name: str, **kwargs: Any) -> MigrationPolicy:
    """Instantiate a policy by registry name."""
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        raise MigrationError(f"unknown policy {name!r}") from None
    return factory(**kwargs)

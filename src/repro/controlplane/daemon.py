"""The long-running control-plane daemon: monitor -> decide -> migrate.

:class:`ControlPlane` runs the paper's control loop against a live tier:

1. **Monitor** -- every ``poll_interval_s`` the control thread sums the
   active nodes' wire counters (``get_hits + get_misses + cmd_set``)
   through the snapshot agent and turns the delta into a smoothed
   request rate.  Key *samples* arrive separately, pushed by the load
   generator's (or proxy's) ``key_observer`` into the shared
   :class:`~repro.core.autoscaler.ScalingEngine`.
2. **Decide** -- the engine gates AutoScaler evaluations (interval,
   window fill, hysteresis, cooldown) exactly as in the simulator; the
   daemon supplies the live clock and the measured rate.
3. **Migrate** -- an acted decision (or an admin command) runs the
   three-phase FuseCache plan through the *unmodified*
   :class:`~repro.core.master.Master`; retired node processes are then
   drained away via the ``node_stopper`` hook.

The admin API (:mod:`repro.controlplane.admin`) serves from its own
:class:`~repro.net.runtime.EventLoopThread` and only ever enqueues
commands or reads cached state, so a migration in flight never blocks
``GET /status``.

The cluster handle is duck-typed: a live
:class:`~repro.net.cluster.LiveCluster` (nodes expose ``wire_stats()``)
or an in-process :class:`~repro.memcached.cluster.MemcachedCluster`
(nodes expose ``.stats``) both work, which is how the admin-API tests
run without sockets.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.controlplane.admin import AdminServer
from repro.controlplane.errors import ScaleInProgressError
from repro.core.autoscaler import ScalingEngine
from repro.core.master import Master
from repro.errors import (
    ConfigurationError,
    TransportError,
    WireProtocolError,
)
from repro.net.runtime import EventLoopThread
from repro.obs import NULL_TELEMETRY, Telemetry

__all__ = [
    "ControlPlane",
    "ControlPlaneConfig",
    "ScaleInProgressError",
]

EVENT_LOG_LIMIT = 200
"""Events kept in memory (oldest dropped past this)."""

RATE_SMOOTHING = 0.5
"""EWMA weight of the newest rate sample (1.0 = no smoothing)."""


@dataclass
class ControlPlaneConfig:
    """Daemon knobs (the decision policy itself lives in the engine)."""

    poll_interval_s: float = 1.0
    admin_host: str = "127.0.0.1"
    admin_port: int = 0

    def __post_init__(self) -> None:
        if self.poll_interval_s <= 0:
            raise ConfigurationError("poll_interval_s must be positive")


class ControlPlane:
    """Autoscaler-driven scaling supervisor over one cluster.

    Parameters
    ----------
    cluster:
        The tier to supervise (``LiveCluster`` or ``MemcachedCluster``).
    engine:
        The shared decision engine; feed its profiling window from the
        request path (``generator.key_observer = engine.observe_many``).
    master:
        An existing Master to execute plans through; built from
        ``cluster`` when omitted.
    clock:
        Monotonic-seconds source.  Scenario runs pass the load
        generator's run clock so migration timestamps land directly on
        the load timeline; the default is ``time.monotonic``.
    node_stopper:
        Called with each retired node's name after a warm scale-in so
        the OS process actually drains away.
    provisioner:
        Called with a node count before a scale-out; must return the
        names of freshly provisioned (inactive) nodes ready for
        ``plan_scale_out``.  Scale-outs are skipped when absent.
    """

    def __init__(
        self,
        cluster: Any,
        engine: ScalingEngine,
        master: Master | None = None,
        config: ControlPlaneConfig | None = None,
        clock: Callable[[], float] | None = None,
        node_stopper: Callable[[str], None] | None = None,
        provisioner: Callable[[int], Iterable[str]] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.config = config or ControlPlaneConfig()
        self.master = master if master is not None else Master(cluster)
        self.clock = clock if clock is not None else time.monotonic
        self.node_stopper = node_stopper
        self.provisioner = provisioner
        self.telemetry = telemetry or NULL_TELEMETRY
        self._admin = AdminServer(
            self, self.config.admin_host, self.config.admin_port
        )
        self._loop = EventLoopThread(name="controlplane-admin")
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._command: dict[str, Any] | None = None
        self._migrating = False
        self._started_at = 0.0
        self._rate = 0.0
        self._polls = 0
        self._poll_failures = 0
        self._last_counters: int | None = None
        self._last_poll_at: float | None = None
        self.events: list[dict[str, Any]] = []
        self.migrations: list[dict[str, Any]] = []
        metrics = self.telemetry.metrics
        self._c_polls = metrics.counter(
            "controlplane_polls_total", "Stat-poll cycles completed"
        )
        self._g_members = metrics.gauge(
            "controlplane_members", "Active nodes under supervision"
        )
        self._g_rate = metrics.gauge(
            "controlplane_request_rate_rps",
            "Smoothed request rate measured from wire counters",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, auto_poll: bool = True) -> "ControlPlane":
        """Start the admin API and (optionally) the control thread.

        ``auto_poll=False`` starts only the admin surface; commands
        queue until :meth:`step` is called -- the deterministic mode the
        tests drive.
        """
        self._started_at = self.clock()
        self._loop.start()
        self._loop.call(self._admin.start(), timeout=10.0)
        if auto_poll and self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="controlplane-poll", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the control thread and the admin API; idempotent."""
        self._stop.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=30.0)
        if self._loop.running:
            self._loop.call(self._admin.stop(), timeout=10.0)
            self._loop.stop()

    @property
    def admin_endpoint(self) -> tuple[str, int]:
        """The admin API's bound ``(host, port)``."""
        return self._admin.endpoint

    def __enter__(self) -> "ControlPlane":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self.step()
            self._wake.wait(timeout=self.config.poll_interval_s)
            self._wake.clear()

    def step(self) -> None:
        """One control iteration: drain a command, poll, evaluate."""
        with self._lock:
            command, self._command = self._command, None
        if command is not None:
            self._execute(command)
        rate = self._poll_rate()
        active = len(self.cluster.active_members)
        self._polls += 1
        self._c_polls.inc()
        self._g_members.set(active)
        self._g_rate.set(round(rate, 3))
        tick = self.engine.evaluate(
            rate, active, now=self.clock(), busy=self._migrating
        )
        if tick is None:
            return
        decision = tick.decision
        self._event(
            "decision",
            target_nodes=decision.target_nodes,
            current_nodes=decision.current_nodes,
            request_rate=round(decision.request_rate, 1),
            act=tick.act,
            held_reason=tick.held_reason,
            reason=decision.reason,
        )
        if tick.act:
            self._execute(
                {
                    "target": decision.target_nodes,
                    "source": "autoscaler",
                    "reason": decision.reason,
                }
            )

    def _poll_rate(self) -> float:
        """The smoothed request rate from active-node wire counters."""
        try:
            total = self._poll_counters()
        except (TransportError, WireProtocolError, OSError) as exc:
            # A node mid-retirement may refuse the stats call; keep the
            # previous estimate rather than feeding the engine a zero.
            self._poll_failures += 1
            self._event("poll_failed", error=str(exc))
            return self._rate
        now = self.clock()
        last_total, last_at = self._last_counters, self._last_poll_at
        self._last_counters, self._last_poll_at = total, now
        if last_total is None or last_at is None or now <= last_at:
            return self._rate
        sample = max(0, total - last_total) / (now - last_at)
        alpha = RATE_SMOOTHING
        self._rate = (
            sample
            if self._polls <= 1
            else (1.0 - alpha) * self._rate + alpha * sample
        )
        return self._rate

    def _poll_counters(self) -> int:
        """Request-counter sum over the active members only."""
        total = 0
        for name in list(self.cluster.active_members):
            node = self.cluster.nodes[name]
            wire = getattr(node, "wire_stats", None)
            if wire is not None:
                stats = wire()
                total += (
                    stats.get("get_hits", 0)
                    + stats.get("get_misses", 0)
                    + stats.get("cmd_set", 0)
                )
            else:
                counters = node.stats
                total += (
                    counters.get_hits + counters.get_misses + counters.sets
                )
        return total

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, command: dict[str, Any]) -> None:
        with self._lock:
            self._migrating = True
        try:
            drain = command.get("drain")
            current = len(self.cluster.active_members)
            if drain is not None:
                if drain not in self.cluster.active_members:
                    self._event("drain_skipped", node=drain)
                    return
                self._scale_in(command, [drain])
                return
            target = int(command["target"])
            if target == current:
                self._event("noop", target_nodes=target)
                return
            if target < current:
                retiring = self.master.choose_retiring(current - target)
                self._scale_in(command, retiring)
            else:
                self._scale_out(command, target - current)
        finally:
            with self._lock:
                self._migrating = False

    def _scale_in(
        self, command: dict[str, Any], retiring: list[str]
    ) -> None:
        plan = self.master.plan_scale_in(retiring)
        killed_at = self.clock()
        report = self.master.execute(plan)
        executed_at = self.clock()
        if self.node_stopper is not None:
            for name in plan.retiring:
                self.node_stopper(name)
        self._record_migration(
            command,
            action="scale_in",
            changed=list(plan.retiring),
            outcome=report.outcome,
            items_exported=report.items_exported,
            items_imported=report.items_imported,
            membership_after=list(report.membership_after),
            killed_at_s=killed_at,
            executed_at_s=executed_at,
        )

    def _scale_out(self, command: dict[str, Any], count: int) -> None:
        if self.provisioner is None:
            self._event(
                "scale_out_skipped",
                wanted=count,
                reason="no provisioner configured",
            )
            return
        new_names = list(self.provisioner(count))
        plan = self.master.plan_scale_out(new_names)
        killed_at = self.clock()
        report = self.master.execute(plan)
        executed_at = self.clock()
        self._record_migration(
            command,
            action="scale_out",
            changed=new_names,
            outcome=report.outcome,
            items_exported=report.items_exported,
            items_imported=report.items_imported,
            membership_after=list(report.membership_after),
            killed_at_s=killed_at,
            executed_at_s=executed_at,
        )

    def _record_migration(
        self, command: dict[str, Any], **fields: Any
    ) -> None:
        record: dict[str, Any] = {
            "source": command.get("source", "admin"),
            "reason": command.get("reason", ""),
            **fields,
        }
        record["killed_at_s"] = round(record["killed_at_s"], 3)
        record["executed_at_s"] = round(record["executed_at_s"], 3)
        self.migrations.append(record)
        self.telemetry.metrics.counter(
            "controlplane_scale_actions_total",
            "Executed scale actions by direction and source",
            action=record["action"],
            source=record["source"],
        ).inc()
        self._event(
            record["action"],
            source=record["source"],
            changed=record["changed"],
            outcome=record["outcome"],
        )

    # ------------------------------------------------------------------
    # Admin surface (called from the admin loop thread)
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Cached daemon state; never touches the wire."""
        with self._lock:
            pending = self._command
            migrating = self._migrating
        return {
            "uptime_s": round(self.clock() - self._started_at, 3),
            "members": sorted(self.cluster.active_members),
            "migrating": migrating,
            "pending_command": dict(pending) if pending else None,
            "request_rate_rps": round(self._rate, 3),
            "polls": self._polls,
            "poll_failures": self._poll_failures,
            "engine": self.engine.snapshot(),
            "migrations": [dict(m) for m in self.migrations],
            "events": [dict(e) for e in self.events[-20:]],
        }

    def metrics_text(self) -> str:
        """The daemon's metric families in Prometheus text format."""
        metrics = self.telemetry.metrics
        if not getattr(metrics, "enabled", False):
            return "# controlplane telemetry disabled\n"
        from repro.obs.export import to_prometheus

        return to_prometheus(metrics)

    def request_scale(self, target: int) -> dict[str, Any]:
        """Queue a manual resize to ``target`` nodes (admin POST /scale)."""
        if isinstance(target, bool) or not isinstance(target, int):
            raise ConfigurationError("target must be an integer")
        if target < 1:
            raise ConfigurationError("target must be >= 1")
        if target > len(self.cluster.nodes):
            raise ConfigurationError(
                f"target {target} exceeds the {len(self.cluster.nodes)} "
                "known nodes"
            )
        with self._lock:
            if self._migrating or self._command is not None:
                raise ScaleInProgressError(
                    "a scale command is already in flight"
                )
            self._command = {"target": target, "source": "admin"}
        self._wake.set()
        return {"accepted": True, "target": target}

    def request_drain(self, node: str) -> dict[str, Any]:
        """Queue the retirement of one named node (POST /drain/<node>)."""
        if node not in self.cluster.active_members:
            raise KeyError(node)
        if len(self.cluster.active_members) <= 1:
            raise ConfigurationError("cannot drain the last node")
        with self._lock:
            if self._migrating or self._command is not None:
                raise ScaleInProgressError(
                    "a scale command is already in flight"
                )
            self._command = {"drain": node, "source": "admin"}
        self._wake.set()
        return {"accepted": True, "drain": node}

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def _event(self, kind: str, **fields: Any) -> None:
        entry: dict[str, Any] = {
            "type": kind,
            "at_s": round(self.clock() - self._started_at, 3),
            **fields,
        }
        self.events.append(entry)
        if len(self.events) > EVENT_LOG_LIMIT:
            del self.events[: len(self.events) - EVENT_LOG_LIMIT]
        self.telemetry.tracer.event(f"controlplane.{kind}", **fields)

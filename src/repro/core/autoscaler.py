"""When and how much to scale (Q1, Section III-B).

The AutoScaler derives the minimum Memcached hit rate that keeps the
database under its capacity ``r_DB`` for the incoming rate ``r``::

    r * (1 - p_min) < r_DB   =>   p_min > 1 - r_DB / r        (Eq. 1)

It then profiles the recent request trace with stack distances (MIMIR by
default) to find the memory achieving ``p_min``, and normalises by
per-node memory to obtain a node count.  The whole computation is
re-runnable every minute in well under a second, as the paper reports.

The autoscaling algorithm is a *pluggable module* in ElMem; this module
also provides :class:`ScheduledScalingPolicy`, which replays the explicit
scaling actions the paper's figures annotate (e.g. "10 -> 7 nodes at the
30-minute mark").
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.cache_analysis.mimir import MimirProfiler
from repro.cache_analysis.mrc import HitRateCurve, memory_for_hit_rate
from repro.cache_analysis.stack_distance import StackDistanceProfiler
from repro.errors import ConfigurationError
from repro.obs import NULL_TELEMETRY, Telemetry


def min_hit_rate(request_rate: float, db_capacity: float) -> float:
    """Eq. (1): the smallest hit rate keeping DB load under ``r_DB``."""
    if db_capacity <= 0:
        raise ConfigurationError("db_capacity must be positive")
    if request_rate < 0:
        raise ConfigurationError("request_rate must be non-negative")
    if request_rate <= db_capacity:
        return 0.0
    return 1.0 - db_capacity / request_rate


@dataclass(frozen=True)
class ScalingDecision:
    """Outcome of one AutoScaler evaluation."""

    target_nodes: int
    current_nodes: int
    p_min: float
    required_bytes: int | None
    request_rate: float
    # Human-readable account of *why* this target was chosen; recorded
    # as a telemetry decision event so post-hoc analysis can attribute
    # every resize to its cause.
    reason: str = ""

    @property
    def delta(self) -> int:
        """Nodes to add (positive) or retire (negative)."""
        return self.target_nodes - self.current_nodes

    @property
    def is_scale_in(self) -> bool:
        """True when the decision removes nodes."""
        return self.delta < 0

    @property
    def is_scale_out(self) -> bool:
        """True when the decision adds nodes."""
        return self.delta > 0


@dataclass
class AutoScalerConfig:
    """Tuning knobs for the stack-distance AutoScaler.

    Attributes
    ----------
    db_capacity_rps:
        ``r_DB``; obtained by profiling the database (Section III-B).
    node_memory_bytes:
        Memory of one Memcached node.
    bytes_per_item:
        Average cached-item footprint used to convert the item-count
        hit-rate curve into bytes.
    min_nodes, max_nodes:
        Hard bounds on the tier size.
    hit_rate_margin:
        Safety margin added to ``p_min`` so the tier is not sized exactly
        at the knee.
    cold_misses:
        ``"exclude"`` (default) drops first-ever accesses from the
        window's hit-rate curve: the live cache is warm, so a finite
        window's cold misses are a censoring artifact that would make
        every target look unreachable.  ``"count"`` keeps them
        (pessimistic).
    window_requests:
        Profiling window size (the "recent history" of key requests).
    profiler:
        ``"mimir"`` (paper default, O(1) per request) or ``"exact"``.
    """

    db_capacity_rps: float
    node_memory_bytes: int
    bytes_per_item: float
    min_nodes: int = 1
    max_nodes: int = 64
    hit_rate_margin: float = 0.01
    window_requests: int = 200_000
    profiler: str = "mimir"
    cold_misses: str = "exclude"

    def __post_init__(self) -> None:
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ConfigurationError("need 1 <= min_nodes <= max_nodes")
        if self.profiler not in ("mimir", "exact"):
            raise ConfigurationError(f"unknown profiler {self.profiler!r}")
        if self.cold_misses not in ("exclude", "count"):
            raise ConfigurationError(
                f"unknown cold_misses policy {self.cold_misses!r}"
            )
        if not 0.0 <= self.hit_rate_margin < 1.0:
            raise ConfigurationError("hit_rate_margin must be in [0, 1)")


class AutoScaler:
    """Samples the key stream and produces :class:`ScalingDecision` s.

    The AutoScaler sits on one web server (requests are load balanced, so
    one server's sample reflects the popularity distribution) and relays
    decisions to the Master as hints.
    """

    def __init__(
        self,
        config: AutoScalerConfig,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry or NULL_TELEMETRY
        self._profiler = self._new_profiler()
        self.decisions_made = 0

    def _new_profiler(self):
        if self.config.profiler == "exact":
            return StackDistanceProfiler(self.config.window_requests)
        return MimirProfiler()

    @property
    def window_fill(self) -> int:
        """Requests accumulated in the current profiling window."""
        return self._profiler.requests_seen

    def observe(self, key: str) -> None:
        """Feed one requested key into the profiling window."""
        if (
            self.config.profiler == "exact"
            and self._profiler.requests_seen >= self.config.window_requests
        ):
            self.reset_window()
        self._profiler.record(key)

    def observe_many(self, keys: Iterable[str]) -> None:
        """Feed a batch of requested keys."""
        for key in keys:
            self.observe(key)

    def reset_window(self) -> None:
        """Start a fresh profiling window (e.g. each monitoring period)."""
        self._profiler = self._new_profiler()

    def hit_rate_curve(self) -> HitRateCurve:
        """The hit-rate curve of the current window.

        Cold (first-ever) accesses are dropped or kept according to the
        ``cold_misses`` config.
        """
        histogram, cold = self._profiler.histogram()
        if self.config.cold_misses == "exclude":
            cold = 0
        return HitRateCurve(histogram, cold)

    def decide(
        self,
        request_rate: float,
        current_nodes: int,
        now: float | None = None,
    ) -> ScalingDecision:
        """Evaluate Eq. (1) + the hit-rate curve into a target node count.

        When the target hit rate is unreachable within ``max_nodes`` (too
        many cold misses), the scaler provisions ``max_nodes`` -- more
        cache cannot help beyond the trace's reuse.  ``now`` (sim
        seconds) timestamps the telemetry decision event.
        """
        config = self.config
        p_min = min(
            min_hit_rate(request_rate, config.db_capacity_rps)
            + config.hit_rate_margin,
            0.999,
        )
        curve = self.hit_rate_curve()
        required = memory_for_hit_rate(curve, p_min, config.bytes_per_item)
        reachable = required is not None
        if required is None:
            # Unreachable target (cold misses dominate the window): size
            # for the full reusable working set -- memory beyond it
            # cannot add a single hit.
            required = int(curve.max_capacity * config.bytes_per_item)
        target = math.ceil(required / config.node_memory_bytes)
        if not reachable:
            # The window carries too little reuse signal to prove a
            # smaller tier suffices; never scale *in* on it.
            target = max(target, current_nodes)
        target = max(config.min_nodes, min(config.max_nodes, target))
        self.decisions_made += 1
        reason = (
            f"rate {request_rate:.0f} rps needs hit rate >= {p_min:.3f}; "
            f"curve says {required / (1 << 20):.1f} MiB"
        )
        if not reachable:
            reason += " (target unreachable in window; never scale in)"
        decision = ScalingDecision(
            target_nodes=target,
            current_nodes=current_nodes,
            p_min=p_min,
            required_bytes=required,
            request_rate=request_rate,
            reason=reason,
        )
        action = (
            "scale_in"
            if decision.is_scale_in
            else "scale_out" if decision.is_scale_out else "hold"
        )
        self.telemetry.tracer.event(
            "autoscaler.decision",
            sim_s=now,
            action=action,
            target_nodes=target,
            current_nodes=current_nodes,
            p_min=round(p_min, 4),
            request_rate=round(request_rate, 1),
            reachable=reachable,
            reason=reason,
        )
        metrics = self.telemetry.metrics
        metrics.counter(
            "autoscaler_decisions_total",
            "AutoScaler evaluations by resulting action",
            action=action,
        ).inc()
        metrics.gauge(
            "autoscaler_target_nodes",
            "Most recent AutoScaler node-count target",
        ).set(target)
        return decision


@dataclass
class ScheduledAction:
    """One pre-planned membership change at an absolute time."""

    at_time: float
    target_nodes: int
    fired: bool = field(default=False, compare=False)


class ScheduledScalingPolicy:
    """Replays explicit scaling actions (the paper's figure annotations).

    Example: ``ScheduledScalingPolicy([(1800, 7)])`` scales the tier to 7
    nodes at the 30-minute mark, like Fig. 6(a).
    """

    def __init__(self, actions: list[tuple[float, int]]) -> None:
        self.actions = [
            ScheduledAction(at_time, target)
            for at_time, target in sorted(actions)
        ]

    def pending_action(
        self, now: float, current_nodes: int
    ) -> ScalingDecision | None:
        """The next unfired action due at ``now``, as a ScalingDecision."""
        for action in self.actions:
            if action.fired or action.at_time > now:
                continue
            action.fired = True
            if action.target_nodes == current_nodes:
                return None
            return ScalingDecision(
                target_nodes=action.target_nodes,
                current_nodes=current_nodes,
                p_min=0.0,
                required_bytes=None,
                request_rate=0.0,
                reason=f"scheduled action at t={action.at_time:.0f}s",
            )
        return None


@dataclass
class ScalingEngineConfig:
    """Decision-loop policy shared by the simulator and the live daemon.

    Attributes
    ----------
    evaluate_interval_s:
        Minimum spacing between AutoScaler evaluations (the paper
        re-runs the computation every monitoring period).
    min_window:
        Do not evaluate before the profiling window has seen this many
        requests; a cold-dominated window makes every hit-rate target
        look unreachable and the working set look tiny.
    confirm_rounds:
        Consecutive same-direction decisions required before acting.
        ``1`` reproduces the simulator's historical behaviour (act on
        the first non-hold decision); live deployments use ``>= 2`` so
        measurement noise cannot flap the tier.
    cooldown_s:
        Quiet time after an action during which further decisions are
        recorded but never acted on, letting the tier settle and the
        window re-fill with post-migration traffic.
    """

    evaluate_interval_s: float = 60.0
    min_window: int = 50_000
    confirm_rounds: int = 1
    cooldown_s: float = 0.0

    def __post_init__(self) -> None:
        if self.evaluate_interval_s <= 0:
            raise ConfigurationError("evaluate_interval_s must be positive")
        if self.min_window < 0:
            raise ConfigurationError("min_window must be non-negative")
        if self.confirm_rounds < 1:
            raise ConfigurationError("confirm_rounds must be >= 1")
        if self.cooldown_s < 0:
            raise ConfigurationError("cooldown_s must be non-negative")


@dataclass(frozen=True)
class EngineTick:
    """One evaluated decision plus the engine's act/hold verdict."""

    decision: ScalingDecision
    act: bool
    held_reason: str = ""


class ScalingEngine:
    """The AutoScaler's decision loop, shared by sim and live paths.

    Wraps an :class:`AutoScaler` with the gating that used to live
    inline in the simulator (evaluation interval, minimum window fill,
    no decisions while a migration is in flight) plus live-tier
    stabilisers: ``confirm_rounds`` hysteresis and a post-action
    cooldown.  The profiling window keeps accumulating across
    evaluations: MIMIR's aging buckets already discount stale accesses,
    and a short window would be cold-miss-dominated, starving Eq. (1)
    of reuse signal.

    Thread-safe: the live tier feeds :meth:`observe_many` from the load
    generator's loop thread while the control thread calls
    :meth:`evaluate`.  Time is always supplied by the caller (sim
    seconds or the live run clock); the engine never reads a clock.
    """

    def __init__(
        self,
        autoscaler: AutoScaler,
        config: ScalingEngineConfig | None = None,
    ) -> None:
        self.autoscaler = autoscaler
        self.config = config or ScalingEngineConfig()
        self._lock = threading.Lock()
        self._last_evaluation = float("-inf")
        self._last_action = float("-inf")
        self._streak_sign = 0
        self._streak = 0
        self.history: list[EngineTick] = []
        self.actions = 0

    # ------------------------------------------------------------------
    # Key-sample feed (any thread)
    # ------------------------------------------------------------------

    def observe(self, key: str) -> None:
        """Feed one requested key into the profiling window."""
        with self._lock:
            self.autoscaler.observe(key)

    def observe_many(self, keys: Iterable[str]) -> None:
        """Feed a batch of requested keys (one lock hold per batch)."""
        with self._lock:
            self.autoscaler.observe_many(keys)

    @property
    def window_fill(self) -> int:
        """Requests accumulated in the profiling window."""
        with self._lock:
            return self.autoscaler.window_fill

    # ------------------------------------------------------------------
    # The decision loop
    # ------------------------------------------------------------------

    def evaluate(
        self,
        request_rate: float,
        current_nodes: int,
        now: float,
        busy: bool = False,
    ) -> EngineTick | None:
        """One loop iteration: maybe decide, maybe act.

        Returns ``None`` when no evaluation happened (interval not
        elapsed, window not filled, or a migration in flight); otherwise
        an :class:`EngineTick` whose ``act`` flag says whether the
        caller should execute the decision now.
        """
        with self._lock:
            config = self.config
            if busy:
                return None
            if now - self._last_evaluation < config.evaluate_interval_s:
                return None
            if self.autoscaler.window_fill < config.min_window:
                return None
            self._last_evaluation = now
            decision = self.autoscaler.decide(
                request_rate, current_nodes, now=now
            )
            if decision.delta == 0:
                self._streak = 0
                self._streak_sign = 0
                tick = EngineTick(decision, act=False, held_reason="hold")
            else:
                sign = 1 if decision.delta > 0 else -1
                if sign == self._streak_sign:
                    self._streak += 1
                else:
                    self._streak_sign = sign
                    self._streak = 1
                if now - self._last_action < config.cooldown_s:
                    tick = EngineTick(
                        decision,
                        act=False,
                        held_reason=(
                            f"cooldown until t="
                            f"{self._last_action + config.cooldown_s:.0f}s"
                        ),
                    )
                elif self._streak < config.confirm_rounds:
                    tick = EngineTick(
                        decision,
                        act=False,
                        held_reason=(
                            f"confirming {self._streak}/"
                            f"{config.confirm_rounds}"
                        ),
                    )
                else:
                    tick = EngineTick(decision, act=True)
                    self._last_action = now
                    self._streak = 0
                    self._streak_sign = 0
                    self.actions += 1
            self.history.append(tick)
            return tick

    def snapshot(self) -> dict[str, object]:
        """JSON-friendly engine state for status surfaces."""
        with self._lock:
            last = self.history[-1] if self.history else None
            return {
                "window_fill": self.autoscaler.window_fill,
                "evaluations": len(self.history),
                "actions": self.actions,
                "streak": self._streak,
                "confirm_rounds": self.config.confirm_rounds,
                "cooldown_s": self.config.cooldown_s,
                "last_decision": (
                    None
                    if last is None
                    else {
                        "target_nodes": last.decision.target_nodes,
                        "current_nodes": last.decision.current_nodes,
                        "p_min": round(last.decision.p_min, 4),
                        "request_rate": round(
                            last.decision.request_rate, 1
                        ),
                        "act": last.act,
                        "held_reason": last.held_reason,
                        "reason": last.decision.reason,
                    }
                ),
            }

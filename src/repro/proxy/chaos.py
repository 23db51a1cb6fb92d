"""Scripted failover chaos for the proxy tier.

:func:`run_proxy_chaos` is the repeatable "kill a backend mid-traffic"
story the CI smoke job and the live tests replay:

1. boot a proxy over N live backends (one backend mildly stalled by a
   seeded :class:`~repro.faults.sockets.SocketFaultPolicy`, so the
   socket fault path is exercised the whole run);
2. warm the cache and drive healthy traffic through a real
   :class:`~repro.net.client.NodeClient` pointed at the proxy;
3. kill one backend's listener mid-traffic and keep driving -- every
   client operation must still complete without a single
   :class:`~repro.errors.TransportError` (dead-backend keys degrade to
   misses / ``NOT_STORED``), and the victim's circuit breaker must be
   observed open via :mod:`repro.obs` metrics;
4. restart the backend and keep driving until the breaker re-closes and
   a victim-owned key is served again (warm recovery -- the listener
   died, the cache did not).

The outcome is a :class:`ProxyChaosResult` whose :meth:`to_dict` is the
JSON artifact CI uploads.  Everything that varies is derived from the
``seed``, so a red run can be replayed bit-for-bit.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field

from repro.errors import TransportError
from repro.faults.sockets import SocketFaultPolicy
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.net.client import NodeClient
from repro.net.runtime import EventLoopThread
from repro.obs import create_telemetry
from repro.obs.export import write_jsonl
from repro.proxy.breaker import CLOSED, OPEN
from repro.proxy.router import ProxyConfig
from repro.proxy.server import ProxyHarness

PAYLOAD = b"x" * 64
"""Fixed chaos payload; value content is irrelevant to the story."""

SCRAPE_EXPECTED_METRICS = (
    "proxy_breaker_state",
    "proxy_breaker_transitions_total",
    "proxy_route_seconds",
    "net_client_roundtrip_seconds",
)
"""Metric families the mid-chaos ``stats obs`` scrape must contain."""

RECOVERY_TIMEOUT_S = 10.0
"""Wall-clock budget for the restarted victim to serve a hit again."""


def _quantile_ms(latencies: list[float], q: float) -> float | None:
    """Exact quantile of measured client latencies, in milliseconds."""
    if not latencies:
        return None
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return round(ordered[index] * 1000.0, 3)


def _scrape_obs(host: str, port: int) -> dict:
    """Mid-chaos ``stats obs`` scrape of the live proxy endpoint.

    Returns a JSON-able verdict instead of raising: the chaos contract
    wants the scrape outcome in the artifact either way.
    """
    from repro.obs.scrape import parse_prometheus, scrape_text

    try:
        text = scrape_text(host, port, timeout_s=5.0)
        samples = parse_prometheus(text)
    except TransportError as exc:
        return {"ok": False, "error": str(exc)}
    present = sorted(
        {
            family
            for family in SCRAPE_EXPECTED_METRICS
            if any(s.name.startswith(family) for s in samples)
        }
    )
    missing = sorted(set(SCRAPE_EXPECTED_METRICS) - set(present))
    return {
        "ok": not missing,
        "present": present,
        "missing": missing,
        "samples": len(samples),
        "bytes": len(text),
    }


@dataclass
class ProxyChaosResult:
    """What one chaos run observed, JSON-serialisable via to_dict()."""

    nodes: list[str]
    victim: str
    stalled: str
    seed: int
    requests_total: int = 0
    client_transport_errors: int = 0
    hits: int = 0
    misses: int = 0
    stored: int = 0
    rejected_sets: int = 0
    breaker_opened: bool = False
    breaker_recovered: bool = False
    victim_served_after_restart: bool = False
    transitions: dict[str, int] = field(default_factory=dict)
    proxy_stats: dict[str, int] = field(default_factory=dict)
    degradation: dict = field(default_factory=dict)
    obs_scrape: dict = field(default_factory=dict)
    trace_spans: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """The chaos contract: clean clients, observable breaker cycle,
        a live metrics surface, and a measured degradation window."""
        return (
            self.client_transport_errors == 0
            and self.breaker_opened
            and self.breaker_recovered
            and self.victim_served_after_restart
            and self.transitions.get("open", 0) >= 1
            and self.transitions.get("half_open", 0) >= 1
            and self.transitions.get("closed", 0) >= 1
            and bool(self.obs_scrape.get("ok"))
            and self.degradation.get("window_s") is not None
        )

    def to_dict(self) -> dict:
        """Flat JSON-friendly report (the CI artifact)."""
        return {**asdict(self), "ok": self.ok}


def run_proxy_chaos(
    nodes: int = 4,
    memory_per_node: int = 1 << 20,
    keys: int = 64,
    healthy_ops: int = 200,
    dead_ops: int = 200,
    seed: int = 0,
    trace_sample: float = 0.05,
    trace_jsonl: str | None = None,
) -> ProxyChaosResult:
    """Kill-and-recover one backend behind a live proxy; see module doc.

    Raises nothing on a failed contract -- inspect ``result.ok`` (the
    CLI and tests do), so a red run still yields a full artifact.

    Beyond the breaker contract this also measures the *degradation
    window* -- the wall time between killing the victim and recovery
    (breaker closed + a victim-owned hit) -- along with per-phase
    client p99 and hit rates, scrapes ``stats obs`` mid-chaos to assert
    the live metrics surface is up, and (with ``trace_jsonl``) exports
    the run's sampled cross-process spans.
    """
    names = [f"node-{i:03d}" for i in range(nodes)]
    victim = names[-1]
    stalled = names[0]
    rng = random.Random(seed)
    # One mild permanent stall on a non-victim backend: every chunk it
    # receives is delayed ~5ms, far below the client timeout, so the
    # fault path runs continuously without ever breaking the contract.
    policy = SocketFaultPolicy(
        FaultSchedule(
            [FaultSpec(0.0, "node_stall", node=stalled, factor=0.5)]
        ),
        base_delay_s=0.005,
    )
    config = ProxyConfig(
        failure_threshold=3,
        open_duration_s=0.25,
        timeout_s=1.0,
    )
    result = ProxyChaosResult(
        nodes=names, victim=victim, stalled=stalled, seed=seed
    )
    started = time.monotonic()
    telemetry = create_telemetry(
        "proxy-chaos", trace_sample=trace_sample, trace_seed=seed
    )
    harness = ProxyHarness(
        names,
        memory_per_node,
        config=config,
        fault_policy=policy,
        telemetry=telemetry,
    )
    client_loop = EventLoopThread(name="proxy-chaos-client")
    client: NodeClient | None = None
    phase_latencies: dict[str, list[float]] = {}
    phase_hits: dict[str, list[int]] = {}
    killed_at: float | None = None
    recovered_at: float | None = None
    try:
        harness.start()
        client_loop.start()
        host, port = harness.proxy_endpoint
        client = NodeClient("proxy", host, port, pool_size=4, timeout_s=5.0)
        keyspace = [f"chaos:{i:04d}" for i in range(keys)]

        def call(coro):
            return client_loop.call(coro, timeout=30.0)

        def drive(ops: int, phase: str) -> None:
            latencies = phase_latencies.setdefault(phase, [])
            hits = phase_hits.setdefault(phase, [])
            for _ in range(ops):
                key = rng.choice(keyspace)
                result.requests_total += 1
                try:
                    if rng.random() < 0.25:
                        stored = call(client.set(key, PAYLOAD))
                        if stored:
                            result.stored += 1
                        else:
                            result.rejected_sets += 1
                    else:
                        op_start = time.perf_counter()
                        value = call(client.get(key))
                        latencies.append(time.perf_counter() - op_start)
                        if value is None:
                            result.misses += 1
                            hits.append(0)
                        else:
                            result.hits += 1
                            hits.append(1)
                except TransportError:
                    result.client_transport_errors += 1

        # Phase 1: warm + healthy traffic.
        for key in keyspace:
            result.requests_total += 1
            if call(client.set(key, PAYLOAD)):
                result.stored += 1
        drive(healthy_ops, "healthy")

        # Phase 2: kill the victim mid-traffic; clients must stay clean.
        harness.kill_backend(victim)
        killed_at = time.monotonic()
        drive(dead_ops, "dead")
        result.obs_scrape = _scrape_obs(host, port)
        router = harness.router
        assert router is not None
        metrics = router.telemetry.metrics
        gauge = metrics.gauge("proxy_breaker_state", backend=victim)
        opens = metrics.counter(
            "proxy_breaker_transitions_total", backend=victim, to=OPEN
        )
        # The breaker may legitimately sit in half-open (probing the
        # still-dead listener) at observation time; "opened" means it
        # tripped at least once and has not settled closed.
        result.breaker_opened = (
            router.breakers[victim].state != CLOSED
            and gauge.value >= 1.0
            and opens.value >= 1
        )

        # Phase 3: restart and drive victim-owned keys until the breaker
        # re-closes and the victim serves a hit again (warm recovery).
        harness.restart_backend(victim)
        victim_keys = [
            key for key in keyspace if router.primary_for(key) == victim
        ] or keyspace
        deadline = time.monotonic() + RECOVERY_TIMEOUT_S
        recovery_latencies = phase_latencies.setdefault("recovery", [])
        recovery_hits = phase_hits.setdefault("recovery", [])
        while time.monotonic() < deadline:
            key = victim_keys[result.requests_total % len(victim_keys)]
            result.requests_total += 1
            try:
                op_start = time.perf_counter()
                value = call(client.get(key))
                recovery_latencies.append(time.perf_counter() - op_start)
            except TransportError:
                result.client_transport_errors += 1
                value = None
            if value is not None:
                result.hits += 1
                recovery_hits.append(1)
                result.victim_served_after_restart = True
            else:
                result.misses += 1
                recovery_hits.append(0)
            if (
                result.victim_served_after_restart
                and router.breakers[victim].state == CLOSED
                and gauge.value == 0.0
            ):
                result.breaker_recovered = True
                recovered_at = time.monotonic()
                break
            time.sleep(0.05)

        result.transitions = {
            state: int(
                metrics.counter(
                    "proxy_breaker_transitions_total",
                    backend=victim,
                    to=state,
                ).value
            )
            for state in ("open", "half_open", "closed")
        }
        result.proxy_stats = router.stats_snapshot()
    finally:
        if client is not None:
            try:
                client_loop.call(client.close(), timeout=5.0)
            except Exception:
                pass
        client_loop.stop()
        harness.stop()
    result.elapsed_s = round(time.monotonic() - started, 3)

    # The degradation window: wall time between killing the victim's
    # listener and full recovery (breaker closed + victim-owned hit).
    phases = {
        phase: {
            "ops": len(latencies),
            "p50_ms": _quantile_ms(latencies, 0.50),
            "p99_ms": _quantile_ms(latencies, 0.99),
            "hit_rate": (
                round(sum(phase_hits[phase]) / len(phase_hits[phase]), 4)
                if phase_hits.get(phase)
                else None
            ),
        }
        for phase, latencies in phase_latencies.items()
    }
    result.degradation = {
        "killed_at_s": (
            round(killed_at - started, 3) if killed_at is not None else None
        ),
        "recovered_at_s": (
            round(recovered_at - started, 3)
            if recovered_at is not None
            else None
        ),
        "window_s": (
            round(recovered_at - killed_at, 3)
            if killed_at is not None and recovered_at is not None
            else None
        ),
        "phases": phases,
    }
    result.trace_spans = len(telemetry.tracer.spans)
    if trace_jsonl is not None:
        write_jsonl(trace_jsonl, telemetry.tracer, telemetry.metrics)
    return result

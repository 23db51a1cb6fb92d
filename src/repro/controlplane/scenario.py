"""End-to-end control-plane scenario: the paper's story on real sockets.

:func:`run_controlplane_scenario` is the CI-facing runner (mirroring
``run_proxy_chaos``): boot a multi-process cluster, seed it, keep an
open-loop tape flowing, and let the **control plane decide for itself**
when to scale -- no scripted ``migrate_at`` moment.  The load
generator's key stream feeds the engine's profiling window, the daemon's
stat polls supply the request rate, and the engine's hysteresis must
confirm the decision before the Master executes the three-phase
FuseCache scale-in mid-traffic.  The admin API is probed over real HTTP
while the migration happens, and the report carries the measured
``killed_at -> recovered_at`` degradation window plus the decision that
caused it.

The induced decision is honest: the tier starts over-provisioned for
the offered rate (``db_capacity_rps`` far above it), so Eq. (1) wants a
near-zero hit rate, the profiled working set fits a smaller tier, and
the AutoScaler's own arithmetic -- bounded by ``min_nodes`` -- lands on
``nodes - retire``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.controlplane.daemon import ControlPlane, ControlPlaneConfig
from repro.core.autoscaler import (
    AutoScaler,
    AutoScalerConfig,
    ScalingEngine,
    ScalingEngineConfig,
)
from repro.core.master import Master
from repro.errors import ConfigurationError
from repro.loadgen.runner import (
    DEFAULT_MEMORY_PER_NODE,
    LoadRun,
    degradation_window,
    drive_load,
)
from repro.obs import create_telemetry

__all__ = [
    "ControlPlaneScenarioResult",
    "run_controlplane_scenario",
]


@dataclass
class ControlPlaneScenarioResult:
    """Everything one scenario run measured, JSON-serialisable."""

    nodes: int
    retire: int
    offered_rate: float
    duration_s: float
    seed: int
    decision: dict[str, Any] | None
    migration: dict[str, Any] | None
    degradation: dict[str, Any]
    admin: dict[str, Any]
    engine: dict[str, Any]
    load: dict[str, Any]
    trace_spans: int
    elapsed_s: float
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every acceptance check held."""
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly dump (the ``--json`` artifact)."""
        return {**asdict(self), "ok": self.ok}


def _http(
    method: str,
    url: str,
    body: bytes | None = None,
    timeout: float = 5.0,
) -> tuple[int, bytes]:
    """One admin-API round trip; HTTP errors return their status."""
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


def _probe_admin(endpoint: tuple[str, int]) -> dict[str, Any]:
    """Exercise the admin surface mid-load; returns the verdict block."""
    host, port = endpoint
    base = f"http://{host}:{port}"
    verdict: dict[str, Any] = {
        "endpoint": f"{host}:{port}",
        "status_ok": False,
        "metrics_ok": False,
        "rejects_malformed": False,
    }
    status_code, status_body = _http("GET", f"{base}/status")
    if status_code == 200:
        payload = json.loads(status_body.decode("utf-8"))
        verdict["status_ok"] = "members" in payload and "engine" in payload
        verdict["members"] = payload.get("members")
        verdict["request_rate_rps"] = payload.get("request_rate_rps")
    metrics_code, metrics_body = _http("GET", f"{base}/metrics")
    metrics_text = metrics_body.decode("utf-8", "replace")
    verdict["metrics_ok"] = (
        metrics_code == 200 and "controlplane_polls_total" in metrics_text
    )
    verdict["metrics_bytes"] = len(metrics_body)
    bad_code, _ = _http("POST", f"{base}/scale", body=b"not json")
    verdict["rejects_malformed"] = bad_code == 400
    return verdict


def run_controlplane_scenario(
    nodes: int = 4,
    retire: int = 1,
    rate: float = 600.0,
    duration_s: float = 15.0,
    seed: int = 7,
    num_keys: int = 3000,
    set_fraction: float = 0.1,
    value_bytes: int = 64,
    memory_per_node: int = DEFAULT_MEMORY_PER_NODE,
    poll_interval_s: float = 0.5,
    evaluate_interval_s: float = 1.0,
    confirm_rounds: int = 2,
    min_window: int = 1500,
    cooldown_s: float = 60.0,
    timeout_s: float = 5.0,
    trace_jsonl: str | None = None,
) -> ControlPlaneScenarioResult:
    """Induce one autoscaler-decided live scale-in and measure it.

    Returns a result whose ``ok`` folds in: the engine (not a script)
    decided the scale-in after ``confirm_rounds`` confirmations; the
    migration completed warm; the degradation window was measured on
    the load timeline; the admin API answered status/metrics and
    rejected a malformed body; and no wire-protocol error leaked into
    the load stream.
    """
    if nodes < 3:
        raise ConfigurationError("the scenario needs at least 3 nodes")
    if not 0 < retire < nodes - 1:
        raise ConfigurationError(
            f"retire must leave >= 2 nodes, got {retire} of {nodes}"
        )
    started_wall = time.perf_counter()
    telemetry = create_telemetry("controlplane")
    engine = ScalingEngine(
        AutoScaler(
            AutoScalerConfig(
                # The tier is deliberately over-provisioned for the
                # offered rate, so Eq. (1) asks for a near-zero hit
                # rate and the engine's own arithmetic scales in.
                db_capacity_rps=rate * 10.0,
                node_memory_bytes=memory_per_node,
                bytes_per_item=2.0 * value_bytes,
                min_nodes=nodes - retire,
                max_nodes=nodes,
            ),
            telemetry=telemetry,
        ),
        ScalingEngineConfig(
            evaluate_interval_s=evaluate_interval_s,
            min_window=min_window,
            confirm_rounds=confirm_rounds,
            cooldown_s=cooldown_s,
        ),
    )
    failures: list[str] = []
    admin: dict[str, Any] = {}
    migrations: list[dict[str, Any]] = []

    def supervise(run: LoadRun) -> None:
        nonlocal admin, migrations
        master = Master(run.live, telemetry=telemetry)
        master.subscribe_membership(run.generator.set_membership)
        control = ControlPlane(
            run.live,
            engine,
            master=master,
            config=ControlPlaneConfig(poll_interval_s=poll_interval_s),
            clock=run.generator.now,
            node_stopper=run.stop_node,
            telemetry=telemetry,
        )
        migrations = control.migrations
        # The daemon keeps deciding until the tape ends.
        run.cleanup.callback(control.stop)
        control.start()
        # Probe the admin surface while traffic flows and before
        # the decision can land (the window is still filling).
        admin = _probe_admin(control.admin_endpoint)
        # Wait for the engine's confirmed decision to execute.
        decision_deadline = duration_s * 0.9
        while (
            not control.migrations
            and run.generator.now() < decision_deadline
        ):
            time.sleep(poll_interval_s / 2.0)

    generator = drive_load(
        rate,
        duration_s,
        seed,
        nodes=nodes,
        memory_per_node=memory_per_node,
        num_keys=num_keys,
        set_fraction=set_fraction,
        value_bytes=value_bytes,
        timeout_s=timeout_s,
        action=supervise,
        key_observer=engine.observe_many,
    )

    migration = dict(migrations[0]) if migrations else None
    degradation: dict[str, Any] = {
        "killed_at_s": None,
        "recovered_at_s": None,
        "window_s": None,
        "errors_in_window": 0,
    }
    decision: dict[str, Any] | None = None
    if migration is None:
        failures.append("the engine never executed a scale decision")
    else:
        degradation = degradation_window(
            generator, migration["killed_at_s"], migration["executed_at_s"]
        )
        if migration["source"] != "autoscaler":
            failures.append(
                f"scale-in came from {migration['source']!r}, "
                "not the autoscaler"
            )
        if migration["outcome"] != "warm":
            failures.append(f"migration outcome {migration['outcome']!r}")
        if len(migration["changed"]) != retire:
            failures.append(
                f"retired {migration['changed']}, wanted {retire} nodes"
            )
    confirmed = [tick for tick in engine.history if tick.act]
    if confirmed:
        acted = confirmed[0].decision
        decision = {
            "target_nodes": acted.target_nodes,
            "current_nodes": acted.current_nodes,
            "p_min": round(acted.p_min, 4),
            "request_rate": round(acted.request_rate, 1),
            "required_bytes": acted.required_bytes,
            "reason": acted.reason,
            "confirm_rounds": confirm_rounds,
            "source": "autoscaler",
        }
    for check in ("status_ok", "metrics_ok", "rejects_malformed"):
        if not admin.get(check):
            failures.append(f"admin API check failed: {check}")
    load = generator.report(
        "controlplane", rate, duration_s, seed
    ).to_dict()
    if load["ops_ok"] == 0:
        failures.append("no operation completed")
    if load["wire_errors"]:
        failures.append(f"{load['wire_errors']} wire errors in the stream")
    trace_spans = len(telemetry.tracer.spans)
    if trace_jsonl:
        from repro.obs.export import write_jsonl

        write_jsonl(
            trace_jsonl,
            tracer=telemetry.tracer,
            metrics=telemetry.metrics,
            meta={"scenario": "controlplane", "seed": seed},
        )
    return ControlPlaneScenarioResult(
        nodes=nodes,
        retire=retire,
        offered_rate=rate,
        duration_s=duration_s,
        seed=seed,
        decision=decision,
        migration=migration,
        degradation=degradation,
        admin=admin,
        engine=engine.snapshot(),
        load=load,
        trace_spans=trace_spans,
        elapsed_s=round(time.perf_counter() - started_wall, 3),
        failures=failures,
    )

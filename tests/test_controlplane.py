"""Control-plane tests: engine hysteresis and the admin API.

The :class:`~repro.core.autoscaler.ScalingEngine` tests drive the
decision loop with scripted decision streams (a stub scaler) and with a
real AutoScaler fed identical samples along both the sim and live entry
points, asserting decision parity.  The admin-API tests run a real
:class:`~repro.controlplane.daemon.ControlPlane` over an in-process
:class:`~repro.memcached.cluster.MemcachedCluster` -- the only sockets
involved are the admin server's HTTP ones -- in ``auto_poll=False``
mode, so command execution happens exactly when the test calls
``step()``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.controlplane.daemon import ControlPlane, ControlPlaneConfig
from repro.core.autoscaler import (
    AutoScaler,
    AutoScalerConfig,
    EngineTick,
    ScalingDecision,
    ScalingEngine,
    ScalingEngineConfig,
)
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.slab import PAGE_SIZE
from repro.obs import create_telemetry

MEMORY = 8 * PAGE_SIZE


class _StubScaler:
    """Replays a scripted list of node deltas as ScalingDecisions."""

    def __init__(self, deltas):
        self.deltas = list(deltas)
        self.calls = 0
        self.window_fill = 10_000

    def decide(self, request_rate, current_nodes, now=0.0):
        delta = self.deltas[self.calls % len(self.deltas)]
        self.calls += 1
        return ScalingDecision(
            target_nodes=current_nodes + delta,
            current_nodes=current_nodes,
            p_min=0.5,
            required_bytes=1 << 20,
            request_rate=request_rate,
        )

    def observe(self, key):
        pass

    def observe_many(self, keys):
        pass


def _engine(deltas, **config):
    return ScalingEngine(_StubScaler(deltas), ScalingEngineConfig(**config))


class TestScalingEngineGating:
    def test_interval_gates_evaluations(self):
        engine = _engine([-1], evaluate_interval_s=10.0, min_window=0)
        assert engine.evaluate(100.0, 4, now=0.0) is not None
        assert engine.evaluate(100.0, 4, now=5.0) is None
        assert engine.evaluate(100.0, 4, now=10.0) is not None

    def test_busy_skips_without_consuming_the_interval(self):
        engine = _engine([-1], evaluate_interval_s=10.0, min_window=0)
        assert engine.evaluate(100.0, 4, now=0.0, busy=True) is None
        # The busy skip must not count as an evaluation: the very next
        # non-busy call still evaluates.
        assert engine.evaluate(100.0, 4, now=0.1) is not None

    def test_window_fill_gates_evaluations(self):
        engine = ScalingEngine(
            AutoScaler(
                AutoScalerConfig(
                    db_capacity_rps=1000.0,
                    node_memory_bytes=MEMORY,
                    bytes_per_item=128.0,
                )
            ),
            ScalingEngineConfig(evaluate_interval_s=1.0, min_window=100),
        )
        assert engine.evaluate(100.0, 4, now=0.0) is None
        engine.observe_many([f"k{i}" for i in range(100)])
        assert engine.window_fill == 100
        assert engine.evaluate(100.0, 4, now=0.0) is not None


class TestScalingEngineHysteresis:
    def test_acts_after_exactly_confirm_rounds(self):
        engine = _engine(
            [-1], evaluate_interval_s=1.0, min_window=0, confirm_rounds=3
        )
        verdicts = [
            engine.evaluate(100.0, 4, now=float(t)).act for t in range(4)
        ]
        # Two confirmations, the action, then the streak restarts.
        assert verdicts == [False, False, True, False]
        assert engine.actions == 1
        held = [t.held_reason for t in engine.history if not t.act]
        assert any("confirming" in reason for reason in held)

    def test_oscillating_decisions_never_act(self):
        # Scale-in, scale-out, scale-in, ... -- the direction never
        # holds for two consecutive rounds, so a confirm_rounds=2
        # engine must refuse to flap the tier.
        engine = _engine(
            [-1, +1], evaluate_interval_s=1.0, min_window=0, confirm_rounds=2
        )
        for t in range(20):
            tick = engine.evaluate(100.0, 4, now=float(t))
            assert tick is not None
            assert not tick.act
        assert engine.actions == 0

    def test_cooldown_suppresses_followup_actions(self):
        engine = _engine(
            [-1],
            evaluate_interval_s=1.0,
            min_window=0,
            confirm_rounds=1,
            cooldown_s=100.0,
        )
        assert engine.evaluate(100.0, 4, now=0.0).act
        for t in range(1, 50):
            tick = engine.evaluate(100.0, 4, now=float(t))
            assert not tick.act
            assert "cooldown" in tick.held_reason
        assert engine.evaluate(100.0, 4, now=101.0).act

    def test_hold_resets_the_streak(self):
        engine = _engine(
            [-1, 0, -1], evaluate_interval_s=1.0, min_window=0,
            confirm_rounds=2,
        )
        first = engine.evaluate(100.0, 4, now=0.0)
        hold = engine.evaluate(100.0, 4, now=1.0)
        third = engine.evaluate(100.0, 4, now=2.0)
        assert not first.act and "confirming" in first.held_reason
        assert not hold.act and hold.held_reason == "hold"
        assert not third.act  # streak restarted at 1, not 2


class TestSimLiveParity:
    def test_same_samples_same_decisions(self):
        # The sim feeds keys one at a time; the live path batches them
        # through observe_many.  Identical samples and rates must yield
        # identical (target, act) sequences from either entry point.
        def build():
            return ScalingEngine(
                AutoScaler(
                    AutoScalerConfig(
                        db_capacity_rps=5000.0,
                        node_memory_bytes=MEMORY,
                        bytes_per_item=128.0,
                        min_nodes=2,
                        max_nodes=8,
                    )
                ),
                ScalingEngineConfig(
                    evaluate_interval_s=1.0,
                    min_window=500,
                    confirm_rounds=2,
                ),
            )

        keys = [f"key-{i % 400}" for i in range(2000)]
        sim, live = build(), build()
        sim_ticks: list[EngineTick] = []
        live_ticks: list[EngineTick] = []
        for round_index in range(4):
            chunk = keys[round_index * 500 : (round_index + 1) * 500]
            for key in chunk:
                sim.observe(key)
            live.observe_many(chunk)
            now = float(round_index)
            sim_tick = sim.evaluate(450.0, 4, now=now)
            live_tick = live.evaluate(450.0, 4, now=now)
            assert (sim_tick is None) == (live_tick is None)
            if sim_tick is not None:
                sim_ticks.append(sim_tick)
                live_ticks.append(live_tick)
        assert sim_ticks, "no evaluation happened"
        assert [
            (t.decision.target_nodes, t.act) for t in sim_ticks
        ] == [(t.decision.target_nodes, t.act) for t in live_ticks]


@pytest.fixture
def control():
    cluster = MemcachedCluster(
        ["node-a", "node-b", "node-c", "node-d"], MEMORY
    )
    for index in range(200):
        cluster.set(f"key-{index}", b"x" * 32, 32, now=0.0)
    plane = ControlPlane(
        cluster,
        # Deltas of 0: the engine always holds, so only admin commands
        # (the surface under test) can change the tier.
        _engine([0], evaluate_interval_s=1.0, min_window=0),
        config=ControlPlaneConfig(poll_interval_s=0.1),
        telemetry=create_telemetry("controlplane-test"),
    )
    plane.start(auto_poll=False)
    try:
        yield plane
    finally:
        plane.stop()


def _request(plane, method, path, body=None):
    host, port = plane.admin_endpoint
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()


class TestAdminApi:
    def test_status_round_trip(self, control):
        status, body = _request(control, "GET", "/status")
        assert status == 200
        payload = json.loads(body)
        assert payload["members"] == [
            "node-a", "node-b", "node-c", "node-d",
        ]
        assert payload["migrating"] is False
        assert payload["engine"]["actions"] == 0

    def test_metrics_round_trip(self, control):
        control.step()
        status, body = _request(control, "GET", "/metrics")
        assert status == 200
        assert b"controlplane_polls_total" in body

    def test_scale_round_trip(self, control):
        status, body = _request(
            control, "POST", "/scale", json.dumps({"target": 3}).encode()
        )
        assert status == 202
        assert json.loads(body) == {"accepted": True, "target": 3}
        control.step()
        assert len(control.cluster.active_members) == 3
        assert control.migrations[0]["action"] == "scale_in"
        assert control.migrations[0]["source"] == "admin"
        assert control.migrations[0]["outcome"] == "warm"

    def test_drain_round_trip(self, control):
        status, _ = _request(control, "POST", "/drain/node-b")
        assert status == 202
        control.step()
        assert "node-b" not in control.cluster.active_members
        assert control.migrations[0]["changed"] == ["node-b"]

    def test_drain_unknown_node_is_404(self, control):
        status, _ = _request(control, "POST", "/drain/nope")
        assert status == 404

    def test_concurrent_scale_refused(self, control):
        first, _ = _request(
            control, "POST", "/scale", json.dumps({"target": 3}).encode()
        )
        second, body = _request(
            control, "POST", "/scale", json.dumps({"target": 2}).encode()
        )
        assert first == 202
        assert second == 409
        assert b"in flight" in body
        control.step()  # only the first command executes
        assert len(control.cluster.active_members) == 3
        assert len(control.migrations) == 1

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[]",
            b"{}",
            json.dumps({"target": "three"}).encode(),
            json.dumps({"target": True}).encode(),
            json.dumps({"target": 0}).encode(),
            json.dumps({"target": 99}).encode(),
        ],
    )
    def test_malformed_scale_bodies_rejected(self, control, body):
        status, _ = _request(control, "POST", "/scale", body)
        assert status == 400
        control.step()
        assert len(control.cluster.active_members) == 4
        assert not control.migrations

    def test_wrong_method_is_405(self, control):
        status, _ = _request(control, "POST", "/status", b"{}")
        assert status == 405
        status, _ = _request(control, "GET", "/scale")
        assert status == 405

    def test_unknown_route_is_404(self, control):
        status, _ = _request(control, "GET", "/nothing")
        assert status == 404

    def test_step_polls_counters_and_rate(self, control):
        control.step()
        for index in range(300):
            control.cluster.get(f"key-{index % 200}", now=1.0)
        control.step()
        payload = json.loads(_request(control, "GET", "/status")[1])
        assert payload["polls"] == 2
        assert payload["poll_failures"] == 0

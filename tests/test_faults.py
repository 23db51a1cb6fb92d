"""Tests for the fault-injection subsystem (specs, schedules, injector,
and the network model's per-flow failure semantics)."""

import pytest

from repro.errors import ConfigurationError, FaultError, FlowTimeoutError
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.slab import PAGE_SIZE
from repro.netsim.transfer import Flow, NetworkModel


def small_cluster(nodes=4):
    names = [f"node-{i:03d}" for i in range(nodes)]
    cluster = MemcachedCluster(names, 4 * PAGE_SIZE)
    for i in range(200):
        cluster.set(f"key-{i:05d}", f"v{i}", 150, float(i))
    return cluster


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(0.0, "disk_full", node="n0")

    def test_crash_requires_node(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(0.0, "node_crash")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(-1.0, "flow_fail")

    def test_activity_window(self):
        spec = FaultSpec(10.0, "node_stall", node="n0", duration_s=5.0)
        assert not spec.active(9.9)
        assert spec.active(10.0)
        assert spec.active(14.9)
        assert not spec.active(15.0)

    def test_crash_is_permanent(self):
        spec = FaultSpec(10.0, "node_crash", node="n0")
        assert spec.expires_at == float("inf")

    def test_flow_matching_with_wildcards(self):
        spec = FaultSpec(0.0, "flow_fail", src="a")
        assert spec.matches_flow("a", "b")
        assert spec.matches_flow("a", "c")
        assert not spec.matches_flow("b", "a")
        both = FaultSpec(0.0, "flow_fail", src="a", dst="b")
        assert both.matches_flow("a", "b")
        assert not both.matches_flow("a", "c")


class TestFaultSchedule:
    def test_specs_sorted_by_time(self):
        schedule = FaultSchedule(
            [
                FaultSpec(30.0, "flow_fail"),
                FaultSpec(10.0, "node_crash", node="n0"),
            ]
        )
        assert [spec.at_s for spec in schedule] == [10.0, 30.0]

    def test_add_keeps_order(self):
        schedule = FaultSchedule([FaultSpec(20.0, "flow_fail")])
        schedule.add(FaultSpec(5.0, "node_crash", node="n0"))
        assert schedule.specs[0].at_s == 5.0

    def test_random_is_deterministic_per_seed(self):
        nodes = [f"node-{i:03d}" for i in range(6)]
        one = FaultSchedule.random(nodes, 600.0, seed=7, intensity=1.0)
        two = FaultSchedule.random(nodes, 600.0, seed=7, intensity=1.0)
        assert one.specs == two.specs
        other = FaultSchedule.random(nodes, 600.0, seed=8, intensity=1.0)
        assert one.specs != other.specs

    def test_random_zero_intensity_is_empty(self):
        assert len(FaultSchedule.random(["a"], 100.0, intensity=0.0)) == 0

    def test_random_caps_crashes(self):
        nodes = [f"node-{i:03d}" for i in range(4)]
        schedule = FaultSchedule.random(
            nodes, 600.0, seed=1, intensity=5.0, max_crash_fraction=0.5
        )
        crashed = {
            spec.node for spec in schedule if spec.kind == "node_crash"
        }
        assert len(crashed) <= 2


class TestFaultInjector:
    def test_crash_applies_once_at_due_time(self):
        cluster = small_cluster()
        schedule = FaultSchedule(
            [FaultSpec(10.0, "node_crash", node="node-001")]
        )
        injector = FaultInjector(cluster, schedule)
        assert injector.advance(9.0) == []
        fired = injector.advance(10.0)
        assert len(fired) == 1
        assert "node-001" not in cluster.nodes
        assert injector.killed == ["node-001"]
        # Re-advancing does not re-fire.
        assert injector.advance(11.0) == []

    def test_never_kills_last_active_node(self):
        cluster = small_cluster(nodes=2)
        schedule = FaultSchedule(
            [
                FaultSpec(1.0, "node_crash", node="node-000"),
                FaultSpec(2.0, "node_crash", node="node-001"),
            ]
        )
        injector = FaultInjector(cluster, schedule)
        injector.advance(5.0)
        assert len(cluster.active_members) == 1
        assert "suppressed" in injector.applied[-1].detail

    def test_stall_factor_window(self):
        cluster = small_cluster()
        schedule = FaultSchedule(
            [
                FaultSpec(
                    10.0,
                    "node_stall",
                    node="node-002",
                    factor=0.25,
                    duration_s=20.0,
                )
            ]
        )
        injector = FaultInjector(cluster, schedule)
        injector.advance(10.0)
        assert injector.rate_factor("node-002", 15.0) == pytest.approx(0.25)
        assert injector.rate_factor("node-002", 31.0) == pytest.approx(1.0)
        assert injector.rate_factor("node-000", 15.0) == pytest.approx(1.0)

    def test_overlapping_stalls_multiply(self):
        cluster = small_cluster()
        schedule = FaultSchedule(
            [
                FaultSpec(0.0, "node_stall", node="n", factor=0.5),
                FaultSpec(0.0, "node_stall", node="n", factor=0.5),
            ]
        )
        injector = FaultInjector(cluster, schedule)
        injector.advance(0.0)
        assert injector.rate_factor("n", 1.0) == pytest.approx(0.25)

    def test_flow_disposition_fail_beats_throttle(self):
        cluster = small_cluster()
        schedule = FaultSchedule(
            [
                FaultSpec(0.0, "flow_throttle", src="a", factor=0.5),
                FaultSpec(0.0, "flow_fail", src="a", dst="b"),
            ]
        )
        injector = FaultInjector(cluster, schedule)
        injector.advance(0.0)
        assert injector.flow_disposition("a", "b", 1.0) == "fail"
        assert injector.flow_disposition("a", "c", 1.0) == pytest.approx(0.5)
        assert injector.flow_disposition("x", "y", 1.0) == pytest.approx(1.0)

    def test_summary_counts(self):
        cluster = small_cluster()
        schedule = FaultSchedule(
            [
                FaultSpec(1.0, "node_crash", node="node-003"),
                FaultSpec(2.0, "flow_fail", src="node-000"),
            ]
        )
        injector = FaultInjector(cluster, schedule)
        injector.advance(10.0)
        summary = injector.summary()
        assert summary["node_crash"] == 1
        assert summary["flow_fail"] == 1
        assert summary["crashed_nodes"] == 1


class TestNetworkFlowFaults:
    def test_attempt_flow_clean(self):
        network = NetworkModel(nic_bandwidth_bps=1000.0, connection_setup_s=1.0)
        result = network.attempt_flow(Flow("a", "b", 2000))
        assert result.ok
        assert result.duration_s == pytest.approx(3.0)

    def test_attempt_flow_refused(self):
        network = NetworkModel(
            nic_bandwidth_bps=1000.0,
            connection_setup_s=1.0,
            fault_hook=lambda src, dst, now: "fail",
        )
        result = network.attempt_flow(Flow("a", "b", 2000))
        assert not result.ok
        assert result.error == "failed"
        assert result.duration_s == pytest.approx(1.0)

    def test_attempt_flow_throttled_past_timeout(self):
        network = NetworkModel(
            nic_bandwidth_bps=1000.0,
            connection_setup_s=0.0,
            flow_timeout_s=5.0,
            fault_hook=lambda src, dst, now: 0.1,
        )
        result = network.attempt_flow(Flow("a", "b", 2000))
        assert not result.ok
        assert result.error == "timeout"
        assert result.duration_s == pytest.approx(5.0)

    def test_attempt_flow_dead_stop_times_out(self):
        network = NetworkModel(
            nic_bandwidth_bps=1000.0,
            flow_timeout_s=7.0,
            fault_hook=lambda src, dst, now: 0.0,
        )
        result = network.attempt_flow(Flow("a", "b", 10))
        assert not result.ok
        assert result.error == "timeout"
        assert result.duration_s == pytest.approx(7.0)

    def test_transfer_raises_typed_errors(self):
        refused = NetworkModel(fault_hook=lambda *a: "fail")
        with pytest.raises(FaultError):
            refused.transfer(Flow("a", "b", 10))
        stalled = NetworkModel(
            nic_bandwidth_bps=1.0, flow_timeout_s=1.0, connection_setup_s=0.0
        )
        with pytest.raises(FlowTimeoutError):
            stalled.transfer(Flow("a", "b", 1_000_000))

    def test_transfer_clean_returns_duration(self):
        network = NetworkModel(
            nic_bandwidth_bps=1000.0, connection_setup_s=0.5
        )
        assert network.transfer(Flow("a", "b", 500)) == pytest.approx(1.0)

    def test_flow_timeout_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(flow_timeout_s=0.0)

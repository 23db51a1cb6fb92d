"""Tests for the resilient three-phase migration: retry policy, deadline
degradation, per-pair partial failure, re-planning around dead nodes, and
seeded end-to-end reproducibility under fault injection."""


import numpy as np
import pytest

from repro.core.master import Master, MigrationReport
from repro.core.policies import ElMemPolicy
from repro.core.retry import NO_RETRY, RetryPolicy
from repro.errors import ConfigurationError, MigrationAbortedError
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.slab import PAGE_SIZE
from repro.netsim.transfer import NetworkModel
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.scenarios import fault_sweep_config
from repro.workloads.traces import RateTrace


def warmed_cluster(nodes=4, items=600, memory_pages=6):
    names = [f"node-{i:03d}" for i in range(nodes)]
    cluster = MemcachedCluster(names, memory_pages * PAGE_SIZE)
    for i in range(items):
        cluster.set(f"key-{i:05d}", f"v{i}", 150, float(i))
    return cluster


def fast_network(**kwargs):
    return NetworkModel(
        nic_bandwidth_bps=1e7, connection_setup_s=0.01, **kwargs
    )


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff_s=1.0,
            backoff_multiplier=2.0,
            max_backoff_s=3.0,
        )
        assert policy.backoff_s(1) == pytest.approx(1.0)
        assert policy.backoff_s(2) == pytest.approx(2.0)
        assert policy.backoff_s(3) == pytest.approx(3.0)  # capped
        assert policy.backoff_s(4) == pytest.approx(3.0)
        assert policy.total_backoff_s() == pytest.approx(1 + 2 + 3 + 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_s=5.0, max_backoff_s=1.0)
        with pytest.raises(ConfigurationError):
            NO_RETRY.backoff_s(0)


class TestRetriesInExecute:
    def _master_with_flaky_network(self, cluster, fail_times):
        """A master whose network refuses flows while ``now`` is in any
        of the given [start, end) windows."""

        def hook(src, dst, now):
            for start, end in fail_times:
                if start <= now < end:
                    return "fail"
            return 1.0

        network = fast_network(fault_hook=hook)
        return Master(
            cluster,
            network=network,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=2.0),
        )

    def test_transient_failure_retried_and_recovered(self):
        cluster = warmed_cluster()
        # Flows fail for the first simulated second only; the first
        # retry (after 2s backoff) succeeds.
        master = self._master_with_flaky_network(cluster, [(0.0, 1.0)])
        plan = master.plan_scale_in(master.choose_retiring(1))
        report = master.execute(plan, now=0.0)
        assert report.retries >= 1
        assert report.retry_time_s > 0
        assert not report.failed_flows
        assert report.outcome == "warm"
        assert report.items_imported > 0
        assert plan.timings.retry_s == pytest.approx(report.retry_time_s)

    def test_permanent_failure_exhausts_retries(self):
        cluster = warmed_cluster()
        master = self._master_with_flaky_network(cluster, [(0.0, 1e9)])
        plan = master.plan_scale_in(master.choose_retiring(1))
        report = master.execute(plan, now=0.0)
        assert report.failed_flows
        assert len(report.failed_flows) == len(plan.transfers)
        assert report.items_imported == 0
        assert report.outcome == "cold"
        # Membership still switched: cold scaling completed.
        assert set(report.membership_after) == set(plan.retained)

    def test_no_retry_policy_gives_up_immediately(self):
        cluster = warmed_cluster()
        network = fast_network(fault_hook=lambda *a: "fail")
        master = Master(cluster, network=network, retry_policy=NO_RETRY)
        plan = master.plan_scale_in(master.choose_retiring(1))
        report = master.execute(plan, now=0.0)
        assert report.retries == 0
        assert report.failed_flows


class TestDeadline:
    def test_deadline_degrades_to_cold_scaling(self):
        cluster = warmed_cluster()
        # Every flow times out; each attempt burns 50s against a 60s
        # deadline, so the first pair aborts the rest of the warm-up.
        network = fast_network(
            flow_timeout_s=50.0, fault_hook=lambda *a: 1e-9
        )
        master = Master(
            cluster,
            network=network,
            retry_policy=RetryPolicy(max_attempts=5, base_backoff_s=1.0),
            deadline_s=60.0,
        )
        plan = master.plan_scale_in(master.choose_retiring(1))
        assert len(plan.transfers) > 1
        report = master.execute(plan, now=100.0)
        assert report.abort_reason is not None
        assert report.unattempted_pairs
        assert report.outcome == "cold"
        assert report.actual_duration_s >= 60.0
        # The scaling action still completed.
        assert set(report.membership_after) == set(plan.retained)
        for name in plan.retiring:
            assert name not in cluster.nodes

    def test_deadline_raise_mode(self):
        cluster = warmed_cluster()
        network = fast_network(
            flow_timeout_s=50.0, fault_hook=lambda *a: 1e-9
        )
        master = Master(
            cluster,
            network=network,
            deadline_s=60.0,
            on_deadline="raise",
        )
        plan = master.plan_scale_in(master.choose_retiring(1))
        with pytest.raises(MigrationAbortedError):
            master.execute(plan, now=0.0)

    def test_stall_blows_deadline(self):
        cluster = warmed_cluster()
        victim_src = None
        master = Master(
            cluster,
            network=fast_network(),
            dump_rate_items_s=1000.0,
            deadline_s=30.0,
        )
        retiring = master.choose_retiring(1)
        victim_src = retiring[0]
        schedule = FaultSchedule(
            [FaultSpec(0.0, "node_stall", node=victim_src, factor=0.001)]
        )
        FaultInjector(cluster, schedule).attach(master)
        plan = master.plan_scale_in(retiring)
        report = master.execute(plan, now=0.0)
        # The 1000x dump stall pushes the first pair past the deadline.
        assert report.abort_reason is not None
        assert report.outcome in ("partial", "cold")

    def test_invalid_config_rejected(self):
        cluster = warmed_cluster(nodes=2)
        with pytest.raises(ConfigurationError):
            Master(cluster, deadline_s=-1.0)
        with pytest.raises(ConfigurationError):
            Master(cluster, on_deadline="explode")


class TestSkippedPairs:
    """Coverage for the node-lost-between-plan-and-execute path."""

    def test_dead_retiring_node_pairs_skipped(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        expected = [pair for pair in plan.transfers if pair[0] == retiring[0]]
        cluster.destroy(retiring[0])
        report = master.execute(plan)
        assert sorted(report.skipped_pairs) == sorted(expected)
        assert report.completed_pairs == 0
        assert report.outcome == "cold"
        assert set(report.membership_after) == set(plan.retained)

    def test_dead_retained_node_skips_only_its_pairs(self):
        cluster = warmed_cluster(nodes=5)
        master = Master(cluster, network=fast_network())
        plan = master.plan_scale_in(master.choose_retiring(1))
        victim = plan.retained[0]
        others = [pair for pair in plan.transfers if pair[1] != victim]
        cluster.destroy(victim)
        report = master.execute(plan)
        assert all(dst == victim for _, dst in report.skipped_pairs)
        assert report.completed_pairs == len(others)
        assert report.outcome == "partial" if others else "cold"
        assert victim not in report.membership_after

    def test_dead_scale_out_target_pairs_skipped(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        plan = master.plan_scale_out(["node-new-0", "node-new-1"])
        cluster.destroy("node-new-0")
        report = master.execute(plan)
        assert all(dst == "node-new-0" for _, dst in report.skipped_pairs)
        assert "node-new-0" not in report.membership_after
        assert "node-new-1" in report.membership_after

    def test_pre_deletes_tolerate_dead_node(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        retiring = master.choose_retiring(1)
        plan = master.plan_fraction_scale_in(retiring, 0.75)
        doomed = plan.retained[0]
        assert plan.pre_deletes  # naive planning always makes room
        cluster.destroy(doomed)
        report = master.execute(plan)  # must not raise
        assert doomed not in report.membership_after

    def test_skipped_pairs_report_is_degraded(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        cluster.destroy(retiring[0])
        report = master.execute(plan)
        assert report.degraded
        clean = MigrationReport(plan=plan)
        assert not clean.degraded


class TestReplanning:
    def test_replan_returns_same_plan_when_all_alive(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        plan = master.plan_scale_in(master.choose_retiring(1))
        assert master.replan(plan) is plan

    def test_replan_after_retained_death(self):
        cluster = warmed_cluster(nodes=5)
        master = Master(cluster, network=fast_network())
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        victim = plan.retained[0]
        cluster.destroy(victim)
        fresh = master.replan(plan)
        assert fresh is not plan
        assert victim not in fresh.retained
        assert all(dst != victim for _, dst in fresh.transfers)
        report = master.execute(fresh)
        assert not report.skipped_pairs
        assert report.outcome == "warm"

    def test_replan_drops_obsolete_scale_in(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        cluster.destroy(retiring[0])  # membership already shrank
        assert master.replan(plan) is None

    def test_replan_scale_out_around_dead_new_node(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        plan = master.plan_scale_out(["node-new-0", "node-new-1"])
        cluster.destroy("node-new-0")
        fresh = master.replan(plan)
        assert fresh is not None and fresh is not plan
        assert fresh.new_nodes == ["node-new-1"]
        report = master.execute(fresh)
        assert not report.skipped_pairs
        assert "node-new-1" in report.membership_after

    def test_replan_scale_out_all_targets_dead(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=fast_network())
        plan = master.plan_scale_out(["node-new-0"])
        cluster.destroy("node-new-0")
        assert master.replan(plan) is None

    def test_policy_tick_replans_around_dead_retained(self):
        cluster = warmed_cluster(nodes=5)
        master = Master(cluster, network=NetworkModel(nic_bandwidth_bps=1e5))
        policy = ElMemPolicy()
        policy.bind(cluster, master)
        policy.on_scale_decision(4, now=0.0)
        assert policy.pending
        _, plan = policy._pending
        victim = plan.retained[0]
        cluster.destroy(victim)
        policy.tick(1e9)
        assert not policy.pending
        assert any(e.kind == "replanned" for e in policy.events)
        report = policy.reports[-1]
        assert not report.skipped_pairs
        assert victim not in report.membership_after

    def test_policy_tick_drops_obsolete_plan(self):
        cluster = warmed_cluster()
        master = Master(cluster, network=NetworkModel(nic_bandwidth_bps=1e5))
        policy = ElMemPolicy()
        policy.bind(cluster, master)
        policy.on_scale_decision(3, now=0.0)
        _, plan = policy._pending
        cluster.destroy(plan.retiring[0])
        policy.tick(1e9)
        assert not policy.pending
        assert not policy.reports
        assert any(e.kind == "replan_dropped" for e in policy.events)
        assert len(cluster.active_members) == 3


def run_seeded_crash_migration():
    """Acceptance scenario: a schedule kills a retiring node between the
    scaling decision and phase 3; scaling must still complete."""
    cluster = warmed_cluster(nodes=4)
    master = Master(
        cluster,
        network=fast_network(),
        retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
        deadline_s=600.0,
    )
    retiring = master.choose_retiring(1)
    schedule = FaultSchedule(
        [FaultSpec(5.0, "node_crash", node=retiring[0])]
    )
    FaultInjector(cluster, schedule).attach(master)
    plan = master.plan_scale_in(retiring)
    report = master.execute(plan, now=10.0)
    return cluster, plan, report


def report_fingerprint(report):
    return (
        report.outcome,
        report.items_exported,
        report.items_imported,
        report.retries,
        report.retry_time_s,
        report.completed_pairs,
        sorted(report.skipped_pairs),
        sorted(report.failed_flows),
        sorted(report.unattempted_pairs),
        report.membership_after,
        report.abort_reason,
        report.actual_duration_s,
    )


class TestSeededCrashAcceptance:
    def test_scaling_completes_and_degradation_recorded(self):
        cluster, plan, report = run_seeded_crash_migration()
        # Membership switched and the cluster still serves.
        assert set(report.membership_after) == set(plan.retained)
        assert set(cluster.active_members) == set(plan.retained)
        hits = sum(
            1
            for i in range(600)
            if cluster.get(f"key-{i:05d}", 1e6) is not None
        )
        assert hits > 0
        # The degradation is visible in the report.
        assert report.skipped_pairs
        assert report.outcome in ("partial", "cold")
        assert report.degraded

    def test_same_seed_reproduces_identical_report(self):
        _, _, first = run_seeded_crash_migration()
        _, _, second = run_seeded_crash_migration()
        assert report_fingerprint(first) == report_fingerprint(second)


class TestFaultSweepExperiment:
    def _config(self, intensity, seed=5):
        trace = RateTrace("flat", np.full(120, 1.0))
        names = [f"node-{i:03d}" for i in range(4)]
        return ExperimentConfig(
            trace=trace,
            policy="elmem",
            num_keys=4000,
            initial_nodes=4,
            memory_per_node=4 * (1 << 20),
            peak_request_rate=50.0,
            items_per_request=3,
            db_capacity_rps=30.0,
            warmup_seconds=5,
            max_value_size=1200,
            schedule=[(20.0, 3)],
            seed=seed,
            fault_schedule=FaultSchedule.random(
                names, 120.0, seed=seed, intensity=intensity
            ),
            retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
            migration_deadline_s=120.0,
            flow_timeout_s=60.0,
        )

    @pytest.mark.slow
    def test_faulted_run_completes_and_records_outcomes(self):
        result = run_experiment(self._config(intensity=1.0))
        assert result.fault_injector is not None
        assert result.fault_injector.applied
        summary = result.summary()
        if result.reports:
            assert "migrations" in summary
            outcomes = {m.outcome for m in result.metrics.migrations}
            assert outcomes <= {"warm", "partial", "cold"}
        # The cluster survived the campaign and kept serving.
        assert len(result.cluster.active_members) >= 1

    @pytest.mark.slow
    def test_fault_free_schedule_matches_no_schedule(self):
        faulted = run_experiment(self._config(intensity=0.0))
        config = self._config(intensity=0.0)
        config.fault_schedule = None
        clean = run_experiment(config)
        assert faulted.summary() == clean.summary()

    def test_fault_sweep_config_builds(self):
        config = fault_sweep_config(
            0.5, duration_s=300, num_keys=2000, warmup_seconds=2
        )
        assert config.fault_schedule is not None
        assert len(config.fault_schedule) >= 1
        assert config.migration_deadline_s == 300.0
        again = fault_sweep_config(
            0.5, duration_s=300, num_keys=2000, warmup_seconds=2
        )
        assert config.fault_schedule.specs == again.fault_schedule.specs

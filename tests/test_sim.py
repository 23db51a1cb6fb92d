"""Tests for the metrics, web application, and experiment runner."""

import math

import numpy as np
import pytest

from repro.sim.experiment import (
    ExperimentConfig,
    build_stack,
    prefill_cluster,
    run_experiment,
)
from repro.sim.metrics import MetricsCollector, SecondRecord
from repro.sim.webapp import LatencyModel, WebApplication
from repro.workloads.traces import RateTrace


def flat_trace(duration=60, level=1.0):
    return RateTrace("flat", np.full(duration, level))


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        trace=flat_trace(),
        num_keys=3000,
        initial_nodes=3,
        memory_per_node=4 * (1 << 20),
        peak_request_rate=40.0,
        items_per_request=3,
        db_capacity_rps=40.0,
        warmup_seconds=5,
        max_value_size=1200,
        growth_factor=3.0,
        seed=1,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestMetricsCollector:
    def make_record(self, t, p95=10.0, hits=8, misses=2):
        return SecondRecord(
            time=t,
            requests=5,
            kv_gets=hits + misses,
            hits=hits,
            misses=misses,
            secondary_hits=0,
            p95_rt_ms=p95,
            mean_rt_ms=p95 / 2,
            db_latency_ms=4.0,
            active_nodes=3,
        )

    def test_series_extraction(self):
        metrics = MetricsCollector()
        for t in range(5):
            metrics.add(self.make_record(float(t), p95=float(t)))
        assert len(metrics) == 5
        assert list(metrics.times()) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert list(metrics.p95_series_ms()) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_hit_rate_property(self):
        record = self.make_record(0.0, hits=9, misses=1)
        assert record.hit_rate == pytest.approx(0.9)
        idle = self.make_record(0.0, hits=0, misses=0)
        idle.kv_gets = 0
        assert idle.hit_rate == 1.0

    def test_between(self):
        metrics = MetricsCollector()
        for t in range(10):
            metrics.add(self.make_record(float(t)))
        window = metrics.between(3.0, 6.0)
        assert list(window.times()) == [3.0, 4.0, 5.0]

    def test_summary(self):
        metrics = MetricsCollector()
        metrics.add(self.make_record(0.0, p95=10.0))
        metrics.add(self.make_record(1.0, p95=30.0))
        summary = metrics.summary()
        assert summary["mean_p95_rt_ms"] == pytest.approx(20.0)
        assert summary["max_p95_rt_ms"] == pytest.approx(30.0)

    def test_empty_summary(self):
        assert MetricsCollector().summary() == {}


class TestWebApplication:
    def test_one_second_accounting(self):
        config = tiny_config()
        dataset, generator, cluster, database, master, policy = build_stack(
            config
        )
        prefill_cluster(cluster, dataset, generator.popularity)
        app = WebApplication(generator, policy, database, seed=1)
        record = app.run_second(0.0, 50.0)
        assert record.requests > 0
        assert record.kv_gets == record.requests * 3
        assert record.hits + record.misses == record.kv_gets
        assert record.active_nodes == 3
        assert math.isfinite(record.p95_rt_ms)
        assert record.p95_rt_ms > 0

    def test_zero_rate_second(self):
        config = tiny_config()
        dataset, generator, cluster, database, master, policy = build_stack(
            config
        )
        app = WebApplication(generator, policy, database, seed=1)
        record = app.run_second(0.0, 0.0)
        assert record.requests == 0
        assert math.isnan(record.p95_rt_ms)

    def test_misses_fill_cache(self):
        config = tiny_config()
        dataset, generator, cluster, database, master, policy = build_stack(
            config
        )
        app = WebApplication(generator, policy, database, seed=1)
        app.run_second(0.0, 50.0)
        assert cluster.total_items() > 0

    def test_key_observer_sees_all_keys(self):
        config = tiny_config()
        dataset, generator, cluster, database, master, policy = build_stack(
            config
        )
        seen = []
        app = WebApplication(
            generator,
            policy,
            database,
            seed=1,
            key_observer=seen.extend,
        )
        record = app.run_second(0.0, 30.0)
        assert len(seen) == record.kv_gets

    def test_latency_model_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(cache_hit_ms=0.0)


class TestPrefill:
    def test_prefill_orders_by_popularity(self):
        config = tiny_config()
        dataset, generator, cluster, database, master, policy = build_stack(
            config
        )
        prefill_cluster(cluster, dataset, generator.popularity)
        assert cluster.total_items() > 0
        # The most popular resident key must be hotter than the least
        # popular resident key on every node.
        ranked = generator.popularity.rank_order()
        hottest = dataset.keyspace.key(int(ranked[0]))
        coldest = dataset.keyspace.key(int(ranked[-1]))
        hot_node = cluster.nodes[cluster.route(hottest)]
        if hot_node.contains(hottest) and hot_node.contains(coldest):
            assert (
                hot_node.peek(hottest).last_access
                > hot_node.peek(coldest).last_access
            )

    def test_prefill_timestamps_before_end_time(self):
        config = tiny_config()
        dataset, generator, cluster, database, master, policy = build_stack(
            config
        )
        prefill_cluster(
            cluster, dataset, generator.popularity, end_time=-10.0
        )
        for node in cluster.active_nodes:
            for class_id in node.active_class_ids():
                for _, ts in node.dump_timestamps(class_id):
                    assert ts <= -10.0


class TestRunExperiment:
    def test_flat_run_produces_metrics(self):
        result = run_experiment(tiny_config())
        assert len(result.metrics) == 60
        summary = result.summary()
        assert summary["mean_hit_rate"] > 0.3
        assert summary["total_requests"] > 0

    def test_scheduled_scale_in_fires(self):
        config = tiny_config(
            trace=flat_trace(duration=90),
            schedule=[(30.0, 2)],
            policy="baseline",
        )
        result = run_experiment(config)
        assert result.scaling_times == [30.0]
        nodes = result.metrics.series("active_nodes")
        assert nodes[0] == 3
        assert nodes[-1] == 2

    def test_elmem_switch_happens_after_migration(self):
        config = tiny_config(
            trace=flat_trace(duration=90),
            schedule=[(20.0, 2)],
            policy="elmem",
            nic_bandwidth_bps=5e5,
        )
        result = run_experiment(config)
        nodes = result.metrics.series("active_nodes")
        assert nodes[-1] == 2
        switch_at = np.argmax(nodes < 3)
        assert switch_at > 20  # deferred past the decision time

    def test_all_policies_run(self):
        for name in ("baseline", "elmem", "naive", "cachescale"):
            config = tiny_config(
                trace=flat_trace(duration=40),
                schedule=[(10.0, 2)],
                policy=name,
            )
            result = run_experiment(config)
            assert len(result.metrics) == 40, name

    def test_autoscale_mode_runs(self):
        config = tiny_config(
            trace=flat_trace(duration=130, level=1.0),
            autoscale=True,
            autoscale_interval_s=30.0,
            autoscale_min_window=1_000,
        )
        result = run_experiment(config)
        assert result.decisions  # the autoscaler evaluated at least once

    def test_baseline_hit_rate_drops_after_scale_in(self):
        config = tiny_config(
            trace=flat_trace(duration=60),
            schedule=[(20.0, 2)],
            policy="baseline",
        )
        result = run_experiment(config)
        rates = result.metrics.hit_rates()
        before = rates[10:20].mean()
        after = rates[21:31].mean()
        assert after < before

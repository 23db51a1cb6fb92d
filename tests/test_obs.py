"""Tests for the observability subsystem: span tracing, metrics,
exporters, timeline rendering, and the instrumentation threaded through
the migration pipeline."""

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.core.master import Master
from repro.core.retry import RetryPolicy
from repro.errors import ConfigurationError
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.slab import PAGE_SIZE
from repro.netsim.transfer import NetworkModel
from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TELEMETRY,
    NULL_TRACER,
    MetricsRegistry,
    Telemetry,
    Tracer,
    create_telemetry,
)
from repro.obs.export import read_jsonl, to_prometheus, write_jsonl
from repro.obs.timeline import render_timeline, summary_table
from repro.obs.trace import Span, build_trees
from repro.sim.metrics import MetricsCollector, SecondRecord


def _record(time, p95=5.0):
    return SecondRecord(
        time=time,
        requests=10,
        kv_gets=40,
        hits=30,
        misses=10,
        secondary_hits=0,
        p95_rt_ms=p95,
        mean_rt_ms=2.0,
        db_latency_ms=1.0,
        active_nodes=4,
    )


class TestSpans:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        root = tracer.root("migration", sim_s=10.0, kind="scale_in")
        plan = root.child("plan", sim_s=10.0)
        dump = plan.child("dump")
        dump.end()
        plan.end(sim_s=12.0)
        imp = root.child("import", sim_s=12.0)
        imp.end(sim_s=20.0)
        root.end(sim_s=20.0)

        assert [s.name for s in root.walk()] == [
            "migration",
            "plan",
            "dump",
            "import",
        ]
        assert root.find("dump") is dump
        assert root.find("missing") is None
        assert root.find_all("plan") == [plan]
        assert tracer.find_roots("migration") == [root]
        assert root.sim_s == pytest.approx(10.0)
        assert imp.sim_s == pytest.approx(8.0)
        assert root.attributes["kind"] == "scale_in"

    def test_wall_clock_monotone_and_idempotent_end(self):
        tracer = Tracer()
        span = tracer.root("work")
        child = span.child("inner")
        child.end()
        first = child.end_s
        child.end()  # second end must not move the wall clock
        assert child.end_s == first
        span.end()
        assert span.ended
        assert span.wall_s >= 0.0
        assert child.start_s >= span.start_s
        # Recorded once each, when they ended; ids link the child.
        assert tracer.spans == [child, span]
        assert (child.trace_id, child.parent_id) == (
            span.trace_id,
            span.span_id,
        )

    def test_sim_window_pins_interval_post_hoc(self):
        span = Span("scoring")
        assert span.sim_s is None  # no sim endpoints yet
        span.sim_window(5.0, 7.5)
        assert span.start_sim_s == 5.0
        assert span.sim_s == pytest.approx(2.5)

    def test_events_carry_attributes(self):
        tracer = Tracer()
        span = tracer.root("migration")
        span.event("retry", sim_s=3.0, backoff_s=2.0)
        tracer.event("fault.injected", sim_s=1.0, kind="node_crash")
        assert span.events[0].name == "retry"
        assert span.events[0].attributes["backoff_s"] == 2.0
        assert tracer.events[0].sim_s == 1.0


class TestDisabledMode:
    def test_null_singletons_absorb_everything(self):
        assert NULL_SPAN.child("x") is NULL_SPAN
        assert NULL_SPAN.event("retry") is None
        NULL_SPAN.set(outcome="warm")
        NULL_SPAN.sim_window(0.0, 1.0)
        NULL_SPAN.end(sim_s=5.0)
        assert NULL_SPAN.find("anything") is None
        assert list(NULL_SPAN.walk()) == []
        assert NULL_TRACER.root("migration") is NULL_SPAN
        assert NULL_TRACER.find_roots("migration") == []
        metric = NULL_METRICS.counter("x_total", label="v")
        metric.inc()
        metric.observe(1.0)
        metric.set(2.0)
        assert metric.value == 0.0
        assert NULL_METRICS.snapshot() == []

    def test_telemetry_defaults_disabled(self):
        assert not NULL_TELEMETRY.enabled
        assert not Telemetry().enabled
        enabled = create_telemetry()
        assert enabled.enabled
        assert enabled.tracer.enabled and enabled.metrics.enabled

    def test_master_without_telemetry_records_nothing(self):
        cluster = _warmed_cluster()
        master = Master(cluster, network=_fast_network())
        plan = master.plan_scale_in(master.choose_retiring(1))
        master.execute(plan, now=0.0)
        assert plan.span is NULL_SPAN


class TestMetrics:
    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_same_name_and_labels_share_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("ops_total", op="get")
        b = registry.counter("ops_total", op="get")
        c = registry.counter("ops_total", op="set")
        assert a is b and a is not c

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_histogram_bucket_edges(self):
        registry = MetricsRegistry()
        hist = registry.histogram("d_seconds", buckets=(1.0, 5.0))
        # Prometheus le semantics: a value exactly on an edge counts
        # toward that edge's bucket.
        hist.observe(1.0)
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(100.0)  # above every bound -> +Inf bucket
        assert hist.counts == [2, 1, 1]
        assert hist.cumulative() == [
            (1.0, 2),
            (5.0, 3),
            (math.inf, 4),
        ]
        assert hist.sum == pytest.approx(106.5)
        assert hist.count == 4

    def test_histogram_validates_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad_seconds", buckets=())
        with pytest.raises(ConfigurationError):
            registry.histogram("bad2_seconds", buckets=(5.0, 1.0))


class TestExporters:
    def _populated(self):
        tracer = Tracer()
        root = tracer.root("migration", sim_s=0.0, kind="scale_in")
        pair = root.child("pair", sim_s=1.0, src="a", dst="b")
        pair.event("retry", sim_s=2.0, backoff_s=1.0)
        pair.end(sim_s=3.0)
        root.end(sim_s=4.0)
        tracer.event("fault.injected", sim_s=0.5, kind="node_stall")
        registry = MetricsRegistry()
        registry.counter("flows_total", "All flows", error="a\"b\\c").inc(3)
        registry.gauge("backlog", "Line1\nline2").set(7)
        registry.histogram("t_seconds", buckets=(1.0, 10.0)).observe(2.0)
        return tracer, registry

    def test_jsonl_round_trip(self, tmp_path):
        tracer, registry = self._populated()
        path = write_jsonl(
            tmp_path / "obs.jsonl",
            tracer=tracer,
            metrics=registry,
            meta={"policy": "elmem"},
        )
        # Every line must be valid JSON.
        for line in path.read_text().splitlines():
            json.loads(line)
        dump = read_jsonl(path)
        assert dump.meta["policy"] == "elmem"
        assert dump.meta["version"] == 2
        assert len(dump.spans) == 2  # flat: root and pair
        (tree,) = build_trees(dump.spans)
        assert tree.name == "migration"
        assert tree.attributes["kind"] == "scale_in"
        pair = tree.find("pair")
        assert pair is not None
        assert pair.attributes == {"src": "a", "dst": "b"}
        assert pair.events[0].name == "retry"
        assert pair.sim_s == pytest.approx(2.0)
        assert [e.name for e in dump.events] == ["fault.injected"]
        assert {m["name"] for m in dump.metrics} == {
            "flows_total",
            "backlog",
            "t_seconds",
        }

    def test_prometheus_exposition_and_escaping(self):
        _, registry = self._populated()
        text = to_prometheus(registry)
        assert text.endswith("\n")
        # Label value escaping: quote and backslash escaped.
        assert 'error="a\\"b\\\\c"' in text
        # Help escaping: newline becomes literal \n.
        assert "# HELP backlog Line1\\nline2" in text
        assert "# TYPE flows_total counter" in text
        assert "# TYPE t_seconds histogram" in text
        assert 't_seconds_bucket{le="1"} 0' in text
        assert 't_seconds_bucket{le="10"} 1' in text
        assert 't_seconds_bucket{le="+Inf"} 1' in text
        assert "t_seconds_sum 2" in text
        assert "t_seconds_count 1" in text
        assert "backlog 7" in text

    def test_prometheus_empty_registry(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestTimeline:
    def test_render_contains_phases_and_events(self):
        tracer = Tracer()
        root = tracer.root("migration", sim_s=0.0)
        plan = root.child("plan")
        plan.sim_window(0.0, 5.0)
        plan.end()
        imp = root.child("import", sim_s=5.0)
        imp.event("retry", sim_s=7.0)
        imp.end(sim_s=10.0)
        root.end(sim_s=10.0)
        text = render_timeline(root, width=40)
        assert "migration timeline (sim clock" in text
        for name in ("plan", "import"):
            assert name in text
        assert "█" in text
        assert "·" in text  # the retry event mark
        with pytest.raises(ValueError):
            render_timeline(root, clock="cpu")

    def test_render_without_sim_data_degrades(self):
        span = Span("empty")
        span.end()
        assert "no sim-clock data" in render_timeline(span)
        # The wall clock is always recorded, so that axis still works.
        assert "empty timeline (wall clock" in render_timeline(
            span, clock="wall"
        )

    def test_summary_table(self):
        tracer = Tracer()
        root = tracer.root("migration", sim_s=0.0)
        root.child("pair", sim_s=0.0).end(sim_s=2.0)
        root.child("pair", sim_s=2.0).end(sim_s=3.0)
        root.end(sim_s=3.0)
        table = summary_table([root])
        assert "pair" in table and "migration" in table
        pair_row = next(
            line for line in table.splitlines() if line.startswith("pair")
        )
        assert " 2 " in pair_row  # count column
        assert summary_table([]) == "(no spans)"


class TestMetricsCollectorFixes:
    def test_between_filters_migrations_too(self):
        collector = MetricsCollector()
        for t in range(10):
            collector.add(_record(float(t)))

        class _FakeReport:
            class plan:
                kind = "scale_in"

            executed_at = 2.0
            retries = 1
            failed_flows = ()
            skipped_pairs = ()
            unattempted_pairs = ()
            items_imported = 5
            retry_time_s = 0.5
            outcome = "warm"
            abort_reason = None

        early = _FakeReport()
        late = _FakeReport()
        late.executed_at = 8.0
        collector.record_migration(early)
        collector.record_migration(late)

        window = collector.between(0.0, 5.0)
        assert len(window.records) == 5
        # Regression: migrations must be windowed with the records, not
        # dropped (the old behaviour) nor copied wholesale.
        assert [m.time for m in window.migrations] == [2.0]
        assert collector.between(5.0, 10.0).migrations[0].time == 8.0
        assert "migrations" in window.summary()

    def test_summary_empty_collector(self):
        assert MetricsCollector().summary() == {}

    def test_summary_all_nan_p95(self):
        collector = MetricsCollector()
        for t in range(3):
            collector.add(_record(float(t), p95=float("nan")))
        summary = collector.summary()
        assert summary["mean_p95_rt_ms"] == 0.0
        assert summary["max_p95_rt_ms"] == 0.0
        assert summary["seconds"] == 3.0


def _warmed_cluster(nodes=4, items=600, metrics=None):
    names = [f"node-{i:03d}" for i in range(nodes)]
    cluster = MemcachedCluster(names, 6 * PAGE_SIZE, metrics=metrics)
    for i in range(items):
        cluster.set(f"key-{i:05d}", f"v{i}", 150, float(i))
    return cluster


def _fast_network(**kwargs):
    return NetworkModel(
        nic_bandwidth_bps=1e7, connection_setup_s=0.01, **kwargs
    )


class TestInstrumentedMigration:
    """Acceptance: a faulted scale-in records the full span tree."""

    def _traced_faulted_scale_in(self):
        telemetry = create_telemetry()
        cluster = _warmed_cluster(metrics=telemetry.metrics)

        def flaky(src, dst, now):
            # Flows fail during the first simulated second; the first
            # retry (after backoff) succeeds.
            return "fail" if now < 1.0 else 1.0

        master = Master(
            cluster,
            network=_fast_network(
                fault_hook=flaky, metrics=telemetry.metrics
            ),
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=2.0),
            telemetry=telemetry,
        )
        plan = master.plan_scale_in(master.choose_retiring(1), now=0.0)
        report = master.execute(plan, now=0.0)
        return telemetry, plan, report

    def test_span_tree_has_all_phases(self):
        telemetry, plan, report = self._traced_faulted_scale_in()
        roots = telemetry.tracer.find_roots("migration")
        assert len(roots) == 1
        root = roots[0]
        assert root is plan.span
        for phase in ("plan", "scoring", "dump", "fusecache", "import",
                      "switch"):
            span = root.find(phase)
            assert span is not None, f"missing phase span {phase!r}"
            assert span.ended
            assert span.sim_s is not None
        pairs = root.find_all("pair")
        assert len(pairs) == len(plan.transfers)
        assert all(p.attributes["outcome"] == "completed" for p in pairs)
        assert root.attributes["outcome"] == report.outcome == "warm"
        assert root.attributes["retries"] == report.retries >= 1

    def test_retry_events_recorded_on_pair_spans(self):
        telemetry, _, report = self._traced_faulted_scale_in()
        root = telemetry.tracer.find_roots("migration")[0]
        retries = [
            e
            for span in root.walk()
            for e in span.events
            if e.name == "retry"
        ]
        failures = [
            e
            for span in root.walk()
            for e in span.events
            if e.name == "flow_failed"
        ]
        assert len(retries) == report.retries >= 1
        assert failures and failures[0].attributes["error"] == "failed"
        assert retries[0].attributes["backoff_s"] == pytest.approx(2.0)

    def test_counters_updated(self):
        telemetry, plan, report = self._traced_faulted_scale_in()
        registry = telemetry.metrics
        assert (
            registry.counter(
                "migrations_executed_total",
                kind="scale_in",
                outcome="warm",
            ).value
            == 1
        )
        assert (
            registry.counter("migration_retries_total").value
            == report.retries
        )
        assert (
            registry.counter("fusecache_comparisons_total").value
            == plan.fusecache_comparisons
        )
        assert (
            registry.counter("flows_attempted_total").value
            >= len(plan.transfers)
        )
        assert (
            registry.counter("flows_failed_total", error="failed").value
            >= 1
        )
        assert registry.counter("node_commands_total", op="set").value > 0
        phase_hist = registry.histogram(
            "migration_phase_seconds", phase="total"
        )
        assert phase_hist.count == 1

    def test_timeline_and_jsonl_round_trip(self, tmp_path, capsys):
        telemetry, _, _ = self._traced_faulted_scale_in()
        root = telemetry.tracer.find_roots("migration")[0]
        text = render_timeline(root, width=50)
        for phase in ("plan", "dump", "fusecache", "import", "switch"):
            assert phase in text
        path = write_jsonl(
            tmp_path / "trace.jsonl",
            tracer=telemetry.tracer,
            metrics=telemetry.metrics,
            meta={"test": "faulted_scale_in"},
        )
        dump = read_jsonl(path)
        (tree,) = build_trees(dump.spans)
        assert tree.find("pair") is not None
        prom = to_prometheus(telemetry.metrics)
        assert "migrations_executed_total" in prom

        # The CLI renders the same file.
        assert cli_main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "migration timeline" in out
        assert "pair" in out
        assert "counters (" in out

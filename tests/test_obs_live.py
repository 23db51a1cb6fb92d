"""Unit tests for the live-observability layer.

Covers the satellite checklist of the observability PR:

- bucket-interpolated :meth:`Histogram.quantile` (empty / single-bucket /
  overflow edge cases),
- Prometheus label-value escaping regression (backslash, quote, newline
  roundtrip through export -> parse),
- the request path of :mod:`repro.obs.trace` (frame validation, seeded
  determinism, sampling, JSONL roundtrip, stitching across files),
- :mod:`repro.obs.scrape` parse-back and quantile estimation,
- the ``repro top`` renderer as a pure function of canned samples.
"""

import math

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.obs.export import read_jsonl, to_prometheus, write_jsonl
from repro.obs.metrics import (
    LATENCY_SECONDS_BUCKETS,
    MetricsRegistry,
    bucket_quantile,
)
from repro.obs.scrape import (
    MetricsScraper,
    Sample,
    histogram_quantile,
    parse_prometheus,
)
from repro.obs.timeline import clock_for, render_timeline
from repro.obs.top import FleetSample, TopDashboard
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TraceContext,
    Tracer,
    build_trees,
    parse_trace_args,
)


class TestHistogramQuantile:
    def make(self, bounds=(1.0, 2.0, 4.0)):
        registry = MetricsRegistry()
        return registry.histogram("q_seconds", buckets=bounds)

    def test_empty_histogram_returns_none(self):
        assert self.make().quantile(0.5) is None

    def test_q_out_of_range_rejected(self):
        hist = self.make()
        hist.observe(1.0)
        with pytest.raises(ConfigurationError):
            hist.quantile(-0.1)
        with pytest.raises(ConfigurationError):
            hist.quantile(1.1)

    def test_single_bucket_interpolates_from_zero(self):
        hist = self.make()
        hist.observe(0.5)  # lands in the first (0, 1.0] bucket
        # Linear interpolation within [0, 1.0]; any q stays in-bucket.
        assert 0.0 <= hist.quantile(0.5) <= 1.0
        assert hist.quantile(1.0) == pytest.approx(1.0)

    def test_interpolation_across_buckets(self):
        hist = self.make()
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        # rank 2 of 4 at q=0.5 -> inside the (1.0, 2.0] bucket.
        q50 = hist.quantile(0.5)
        assert 1.0 <= q50 <= 2.0
        assert hist.quantile(0.0) == pytest.approx(0.0)

    def test_overflow_bucket_clamps_to_last_bound(self):
        hist = self.make()
        hist.observe(100.0)  # beyond every bound -> +Inf bucket
        assert hist.quantile(0.99) == pytest.approx(4.0)

    def test_module_level_bucket_quantile_edges(self):
        bounds = (1.0, 2.0)
        assert bucket_quantile(bounds, [0, 0, 0], 0, 0.5) is None
        # All mass in the overflow bucket clamps to bounds[-1].
        assert bucket_quantile(bounds, [0, 0, 5], 5, 0.5) == 2.0

    def test_disabled_registry_quantile_is_none(self):
        from repro.obs.metrics import NULL_METRICS

        hist = NULL_METRICS.histogram("off_seconds", buckets=(1.0,))
        hist.observe(0.5)
        assert hist.quantile(0.5) is None


class TestExportEscapingRegression:
    def test_label_values_roundtrip_through_parse(self):
        """Backslash, quote, and newline in label values must survive an
        export -> scrape-parse roundtrip byte for byte."""
        registry = MetricsRegistry()
        hostile = 'a"b\\c\nnl'
        registry.counter("esc_total", node=hostile).inc(3)
        text = to_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        samples = parse_prometheus(text)
        row = next(s for s in samples if s.name == "esc_total")
        assert row.labels_dict["node"] == hostile
        assert row.value == 3.0

    def test_help_newline_escaped(self):
        registry = MetricsRegistry()
        registry.counter("h_total", "line one\nline two").inc()
        text = to_prometheus(registry)
        assert "# HELP h_total line one\\nline two" in text
        # A raw newline inside HELP would produce a non-comment line
        # that is not a sample; the parse must see exactly one sample.
        assert len(parse_prometheus(text)) == 1


class TestTraceFrameValidation:
    def test_valid_frames(self):
        ctx = parse_trace_args(["abcdef0123456789", "cafe"])
        assert ctx == TraceContext("abcdef0123456789", "cafe")
        assert ctx.wire_prefix() == b"trace abcdef0123456789 cafe\r\n"

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["abc"],
            ["abc", "def", "extra"],
            ["xyz", "ab"],  # non-hex
            ["ABC", "ab"],  # uppercase rejected
            ["a" * 33, "ab"],  # trace id over cap
            ["ab", "b" * 17],  # span id over cap
            ["", "ab"],
            ["ab", ""],
        ],
    )
    def test_malformed_frames_rejected(self, args):
        assert parse_trace_args(args) is None


class TestLiveTracer:
    """The request-path half of the one tracer: seeded sampling and ids."""

    def test_fixed_seed_is_deterministic(self):
        def ids(seed):
            tracer = Tracer(sample_rate=1.0, seed=seed)
            root = tracer.start_trace("t")
            child = root.child("c")
            joined = tracer.start_span("s", child.context)
            return [root.trace_id, root.span_id, child.span_id, joined.span_id]

        assert ids(42) == ids(42)
        assert ids(42) != ids(43)

    def test_sampling_extremes(self):
        never = Tracer(sample_rate=0.0, seed=1)
        assert all(never.start_trace("t") is None for _ in range(20))
        always = Tracer(sample_rate=1.0, seed=1)
        assert all(
            always.start_trace("t") is not None for _ in range(20)
        )

    def test_fractional_sampling_is_seeded(self):
        def decisions(seed):
            tracer = Tracer(sample_rate=0.3, seed=seed)
            return [
                tracer.start_trace("t") is not None for _ in range(50)
            ]

        first = decisions(9)
        assert first == decisions(9)
        assert any(first) and not all(first)

    @pytest.mark.parametrize("rate", [-0.1, 1.5, 5.0, math.nan])
    def test_out_of_range_sample_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            Tracer(sample_rate=rate)

    def test_span_recorded_only_on_end(self):
        tracer = Tracer("p", sample_rate=1.0)
        root = tracer.start_trace("root")
        migration = tracer.root("migration")
        assert tracer.spans == []
        root.end()
        root.end()  # idempotent
        migration.end()
        assert [s.name for s in tracer.spans] == ["root", "migration"]
        assert tracer.find_roots("migration") == [migration]

    def test_null_tracer_preserves_foreign_chain(self):
        ctx = TraceContext("aaaa", "bbbb")
        span = NULL_TRACER.start_span("x", ctx)
        assert span is NULL_SPAN and span.context is None
        span.end()
        assert NULL_TRACER.spans == ()
        # A tracer that starts no traces of its own still joins one.
        tracer = Tracer("p", sample_rate=0.0)
        joined = tracer.start_span("x", ctx)
        joined.end()
        assert (joined.trace_id, joined.parent_id) == ("aaaa", "bbbb")
        assert tracer.spans == [joined]


class TestJsonlRoundtripAndStitch:
    def _spans(self, tmp_path):
        proxy = Tracer("proxy", sample_rate=1.0, seed=3)
        backend = Tracer("backend", sample_rate=1.0, seed=4)
        root = proxy.start_trace("proxy.get", key="k")
        rpc = proxy.start_span("client.rpc", root.context, node="n0")
        remote = backend.start_span("server.get", rpc.context)
        remote.end()
        rpc.end()
        root.end()
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        proxy_path = tmp_path / "proxy.jsonl"
        backend_path = tmp_path / "backend.jsonl"
        write_jsonl(proxy_path, proxy, registry)
        write_jsonl(backend_path, backend)
        return [proxy_path, backend_path], root

    def test_two_files_stitch_into_one_trace(self, tmp_path):
        paths, root = self._spans(tmp_path)
        dump = read_jsonl(*paths)
        assert len(dump.spans) == 3  # meta/metric lines are not spans
        assert [m["name"] for m in dump.metrics] == ["x_total"]
        (tree,) = build_trees(dump.spans)
        assert tree.trace_id == root.trace_id
        assert [s.process for s in tree.walk()] == [
            "proxy",
            "proxy",
            "backend",
        ]
        assert {s.name for s in tree.walk()} == {
            "proxy.get",
            "client.rpc",
            "server.get",
        }

    def test_span_tree_renders_nested(self, tmp_path):
        paths, _ = self._spans(tmp_path)
        (tree,) = build_trees(read_jsonl(*paths).spans)
        assert tree.name == "proxy.get"
        assert tree.children[0].name == "client.rpc"
        assert tree.children[0].children[0].name == "server.get"
        text = render_timeline(tree, clock=clock_for(tree))
        assert "proxy:proxy.get timeline (wall clock" in text
        assert "\n    backend:server.get " in text

    def test_orphan_spans_become_roots(self):
        a = Tracer("a", seed=1)
        ctx = TraceContext("feed", "01")
        first = a.start_span("one", ctx)
        second = a.start_span("two", ctx)
        first.end()
        second.end()
        roots = build_trees(a.spans)
        assert [root.name for root in roots] == ["one", "two"]
        assert all(root.trace_id == "feed" for root in roots)
        assert all(root.children == [] for root in roots)

    def test_reader_skips_unknown_types_and_rejects_malformed_lines(
        self, tmp_path
    ):
        paths, _ = self._spans(tmp_path)
        path = paths[0]
        with path.open("a") as handle:
            handle.write('{"type": "live_span", "name": "old"}\n\n')
        assert len(read_jsonl(path).spans) == 2
        lines = path.read_text().count("\n")
        for bad in (
            "not json",
            "[1, 2]",
            '{"name": "no type"}',
            '{"type": "span", "name": "no ids"}',
            '{"type": "event", "name": "no clock"}',
        ):
            broken = tmp_path / "broken.jsonl"
            broken.write_text(path.read_text() + bad + "\n")
            with pytest.raises(
                ConfigurationError, match=f"broken.jsonl:{lines + 1}:"
            ):
                read_jsonl(paths[1], broken)
            with pytest.raises(SystemExit, match="broken.jsonl"):
                cli_main(["obs", str(broken)])


class TestScrapeParsing:
    def test_histogram_quantile_from_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "rt_seconds", buckets=LATENCY_SECONDS_BUCKETS, node="n0"
        )
        for value in (0.0002, 0.0004, 0.002, 0.02):
            hist.observe(value)
        samples = parse_prometheus(to_prometheus(registry))
        p50 = histogram_quantile(samples, "rt_seconds", 0.5, node="n0")
        direct = hist.quantile(0.5)
        assert p50 == pytest.approx(direct)
        # Label mismatch -> no buckets -> None.
        assert (
            histogram_quantile(samples, "rt_seconds", 0.5, node="zz")
            is None
        )

    def test_inf_bucket_parsed(self):
        samples = parse_prometheus(
            'x_bucket{le="1"} 2\nx_bucket{le="+Inf"} 5\n'
        )
        les = {s.labels_dict["le"]: s.value for s in samples}
        assert les == {"1": 2.0, "+Inf": 5.0}

    def test_aggregate_sums_matching_series(self):
        scraper = MetricsScraper(endpoints={})
        scraped = {
            "a": [Sample("ops_total", (("node", "n0"),), 3.0)],
            "b": [
                Sample("ops_total", (("node", "n0"),), 4.0),
                Sample("ops_total", (("node", "n1"),), 1.0),
            ],
        }
        merged = {
            (s.name, s.labels): s.value
            for s in scraper.aggregate(scraped)
        }
        assert merged[("ops_total", (("node", "n0"),))] == 7.0
        assert merged[("ops_total", (("node", "n1"),))] == 1.0


def _prom_samples() -> list[Sample]:
    registry = MetricsRegistry()
    registry.counter("proxy_requests_total").inc(100)
    route = registry.histogram(
        "proxy_route_seconds", buckets=LATENCY_SECONDS_BUCKETS
    )
    rt = registry.histogram(
        "net_client_roundtrip_seconds",
        buckets=LATENCY_SECONDS_BUCKETS,
        node="live-00",
    )
    for value in (0.001, 0.002, 0.004):
        route.observe(value)
        rt.observe(value)
    registry.counter("net_client_requests_total", node="live-00").inc(42)
    registry.gauge("proxy_breaker_state", backend="live-00").set(1.0)
    return parse_prometheus(to_prometheus(registry))


class TestTopDashboard:
    def test_render_is_pure_over_canned_samples(self):
        dashboard = TopDashboard(("127.0.0.1", 11311))
        first = FleetSample(at_s=10.0, prom=_prom_samples())
        second = FleetSample(
            at_s=12.0,
            prom=[
                Sample(s.name, s.labels, s.value * 2)
                if s.name == "proxy_requests_total"
                else s
                for s in _prom_samples()
            ],
            proxy_stats={
                "proxy_gets": 60,
                "degraded_gets": 2,
                "active_backends": 1,
                "breaker_state_live-00": 1,
            },
            node_stats={
                "live-00": {
                    "get_hits": 30,
                    "get_misses": 10,
                    "curr_items": 7,
                }
            },
        )
        dashboard.ingest(first)
        dashboard.ingest(second)
        # 100 more requests over 2s -> 50 ops/s.
        assert dashboard.ops_history[-1] == pytest.approx(50.0)
        frame = dashboard.render(second)
        assert "50.0 ops/s" in frame
        assert "live-00" in frame
        assert "open" in frame  # breaker state code 1 renders by name
        assert " 75.0" in frame  # 30 hits / 40 lookups
        assert "degraded 2" in frame

    def test_render_reports_scrape_errors(self):
        dashboard = TopDashboard(("127.0.0.1", 1))
        sample = FleetSample(
            at_s=1.0, errors={"proxy obs": "connection refused"}
        )
        dashboard.ingest(sample)
        frame = dashboard.render(sample)
        assert "! proxy obs: connection refused" in frame

    def test_backend_names_merge_prom_labels_and_flags(self):
        dashboard = TopDashboard(
            ("127.0.0.1", 11311), nodes={"extra": ("127.0.0.1", 1)}
        )
        sample = FleetSample(at_s=1.0, prom=_prom_samples())
        assert dashboard._backend_names(sample) == ["extra", "live-00"]


def test_latency_buckets_are_sorted_and_subsecond_heavy():
    assert list(LATENCY_SECONDS_BUCKETS) == sorted(LATENCY_SECONDS_BUCKETS)
    assert LATENCY_SECONDS_BUCKETS[0] <= 0.0005
    assert sum(1 for b in LATENCY_SECONDS_BUCKETS if b < 0.1) >= 8
    assert not math.isinf(LATENCY_SECONDS_BUCKETS[-1])

"""Load generator tests: deterministic tapes, open-loop discipline.

The schedule and report tests are pure; the open-loop tests drive a real
:class:`~repro.net.server.LiveClusterHarness` over localhost sockets
(in-process servers, so they stay in tier 1 -- the multi-process runs
live in ``tests/test_proc_cluster.py``).  The coordinated-omission test
stalls the backend with a socket fault stub and checks that the
generator charges the stall to the requests it delayed instead of
quietly moving their deadlines.
"""

import asyncio
import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.loadgen import driver
from repro.loadgen.driver import LoadGenerator
from repro.loadgen.report import LoadReport
from repro.loadgen.runner import drive_load
from repro.loadgen.schedule import (
    ScheduledOp,
    build_schedule,
    payload_for,
    tape_rows,
    tape_sha256,
)
from repro.memcached.slab import PAGE_SIZE
from repro.net.server import LiveClusterHarness
from repro.workloads.traces import make_trace

MEMORY = 8 * PAGE_SIZE


class TestSchedule:
    def test_same_args_same_tape(self):
        first = build_schedule(200.0, 1.5, seed=9, num_keys=300)
        second = build_schedule(200.0, 1.5, seed=9, num_keys=300)
        assert tape_rows(first) == tape_rows(second)
        assert tape_sha256(first) == tape_sha256(second)

    def test_different_seeds_diverge(self):
        first = build_schedule(200.0, 1.0, seed=1, num_keys=300)
        second = build_schedule(200.0, 1.0, seed=2, num_keys=300)
        assert tape_sha256(first) != tape_sha256(second)

    def test_deadlines_are_non_decreasing(self):
        schedule = build_schedule(
            150.0, 3.0, seed=4, trace=make_trace("sys")
        )
        deadlines = [op.send_at_s for op in schedule]
        assert deadlines == sorted(deadlines)
        assert deadlines[-1] < 3.0

    def test_trace_shapes_per_second_counts(self):
        rate = 400.0
        schedule = build_schedule(
            rate, 4.0, seed=4, trace=make_trace("sys")
        )
        per_second = [0, 0, 0, 0]
        for op in schedule:
            per_second[int(op.send_at_s)] += 1
        # The trace is normalised to peak 1.0, so no second exceeds the
        # peak rate and the shape actually varies.
        assert max(per_second) <= rate
        assert len(set(per_second)) > 1

    def test_set_fraction_extremes(self):
        all_gets = build_schedule(100.0, 0.5, set_fraction=0.0)
        assert all(op.op == "get" and op.value_bytes == 0 for op in all_gets)
        all_sets = build_schedule(
            100.0, 0.5, set_fraction=1.0, value_bytes=32
        )
        assert all(
            op.op == "set" and op.value_bytes == 32 for op in all_sets
        )

    def test_payload_is_key_derived_and_sized(self):
        payload = payload_for("key-000042", 64)
        assert len(payload) == 64
        assert payload.startswith(b"key-000042#")
        assert payload_for("k", 0) == b""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_schedule(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            build_schedule(100.0, 0.0)
        with pytest.raises(ConfigurationError):
            build_schedule(100.0, 1.0, set_fraction=1.5)

    def test_tape_rows_carry_no_wall_clock_fields(self):
        rows = tape_rows(build_schedule(50.0, 0.5, seed=2))
        assert rows
        for row in rows:
            assert set(row) == {"i", "t", "op", "key", "size"}


class TestReportRoundTrip:
    def make_report(self) -> LoadReport:
        return LoadReport(
            mode="migrate",
            offered_rate=500.0,
            duration_s=10.0,
            seed=7,
            nodes=["proc-00", "proc-01", "proc-02"],
            ops_total=5000,
            ops_sent=4990,
            ops_ok=4980,
            hits=4200,
            misses=300,
            stored=480,
            transport_errors=10,
            wire_errors=0,
            late_sends=12,
            achieved_rate=497.2,
            wall_seconds=10.016,
            response_ms={"p50": 1.2, "p95": 3.4, "p99": 8.9},
            service_ms={"p50": 0.8, "p95": 2.1, "p99": 4.4},
            lateness_ms={"p50": 0.1, "p95": 0.9, "p99": None},
            tape_sha256="ab" * 32,
            trace="sys",
            migration={
                "retired": ["proc-02"],
                "outcome": "warm",
                "killed_at_s": 3.5,
                "recovered_at_s": 3.9,
                "window_s": 0.4,
            },
            extras={"note": "fixture"},
        )

    def test_to_dict_from_dict_round_trip(self):
        report = self.make_report()
        assert LoadReport.from_dict(report.to_dict()) == report

    def test_survives_json_serialisation(self):
        report = self.make_report()
        decoded = json.loads(json.dumps(report.to_dict()))
        assert LoadReport.from_dict(decoded) == report
        assert decoded == report.to_dict()

    def test_optional_fields_default(self):
        data = self.make_report().to_dict()
        data["trace"] = None
        data["migration"] = None
        del data["extras"]
        rebuilt = LoadReport.from_dict(data)
        assert rebuilt.migration is None
        assert rebuilt.extras == {}
        assert rebuilt.achieved_fraction == pytest.approx(4980 / 5000)


class StallEveryChunk:
    """Fault stub: delay every request chunk by a fixed amount."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def disposition(self, node: str) -> tuple[str, float]:
        return ("delay", self.delay_s)


class ChunkRecorder:
    """Fault stub that passes every chunk through, noting when it came.

    ``disposition`` runs once per received request chunk, so the
    arrival list shows how the generator's sends were batched.
    """

    def __init__(self) -> None:
        self.clock = None
        self.arrivals: list[float] = []

    def disposition(self, node: str) -> tuple[str, float]:
        self.arrivals.append(self.clock())
        return ("pass", 0.0)


def get_op(index: int, send_at_s: float) -> ScheduledOp:
    return ScheduledOp(index, send_at_s, "get", f"key-{index}", 0)


class TestOpenLoopRuns:
    def run_generator(self, harness: LiveClusterHarness, schedule):
        generator = LoadGenerator(harness.endpoints, schedule)
        asyncio.run(generator.run())
        # No op leaves before its deadline, so the response time (from
        # the scheduled send) never undercuts the service time (from the
        # actual send); bucket-interpolated quantiles keep that order.
        for q in (0.5, 0.99):
            assert generator.response_hist.quantile(
                q
            ) >= generator.service_hist.quantile(q)
        return generator

    def test_steady_run_completes_the_whole_tape(self):
        schedule = build_schedule(
            300.0, 0.4, seed=5, num_keys=200, set_fraction=0.25
        )
        with LiveClusterHarness(["s0", "s1"], MEMORY) as harness:
            generator = self.run_generator(harness, schedule)
        assert generator.ops_ok == generator.ops_total == len(schedule)
        assert generator.transport_errors == 0
        assert generator.wire_errors == 0
        sets = sum(1 for op in schedule if op.op == "set")
        assert generator.stored == sets
        assert generator.hits + generator.misses == len(schedule) - sets
        report = generator.report("steady", 300.0, 0.4, 5)
        assert report.achieved_rate > 0
        assert report.tape_sha256 == tape_sha256(schedule)
        assert report.response_ms["p99"] is not None

    def test_stalled_backend_records_lateness_not_omission(
        self, monkeypatch
    ):
        # 40 ops due inside 0.2 s against a backend that stalls every
        # chunk 50 ms, with one request slot: the tape falls behind by
        # design.  Open-loop discipline says the lateness is *recorded*
        # -- deadlines never move, and response time (charged from the
        # scheduled send) dominates service time (the wire round trip).
        schedule = build_schedule(
            200.0, 0.2, seed=6, num_keys=50, set_fraction=0.0
        )
        monkeypatch.setattr(driver, "MAX_INFLIGHT", 1)
        stall = StallEveryChunk(0.05)
        with LiveClusterHarness(
            ["s0"], MEMORY, fault_policy=stall
        ) as harness:
            generator = self.run_generator(harness, schedule)
        assert generator.ops_ok == len(schedule)  # nothing dropped
        assert generator.late_sends > 0
        # The run overran its offered window instead of thinning itself.
        assert generator.wall_seconds > 0.2
        response_p50 = generator.response_hist.quantile(0.50)
        service_p50 = generator.service_hist.quantile(0.50)
        assert response_p50 is not None and service_p50 is not None
        assert response_p50 > service_p50
        # The tape itself is untouched: same digest as when it was built.
        report = generator.report("steady", 200.0, 0.2, 6)
        assert report.tape_sha256 == tape_sha256(schedule)
        assert report.late_sends == generator.late_sends
        assert report.achieved_rate < 200.0

    def test_no_op_leaves_before_its_deadline(self):
        # Two gets for one node, due 9 ms apart: each leaves at its own
        # deadline, so the node receives two chunks, the second no
        # earlier than its deadline on the generator's clock.  (The gap
        # between the arrivals is not the check: the first one also
        # pays the connection setup, up to ~1 ms.)
        recorder = ChunkRecorder()
        schedule = [get_op(0, 0.0), get_op(1, 0.009)]
        with LiveClusterHarness(
            ["s0"], MEMORY, fault_policy=recorder
        ) as harness:
            generator = LoadGenerator(harness.endpoints, schedule)
            recorder.clock = generator.now
            asyncio.run(generator.run())
        assert generator.ops_ok == 2
        _, second = recorder.arrivals
        assert second >= 0.009

    def test_failing_action_stops_the_replay(self):
        def fail(run):
            raise RuntimeError("action failed")

        with LiveClusterHarness(["s0", "s1"], MEMORY) as harness:
            with pytest.raises(RuntimeError, match="action failed"):
                drive_load(
                    200.0,
                    3.0,
                    seed=1,
                    endpoints=harness.endpoints,
                    action=fail,
                )
            replaying = [
                thread
                for thread in threading.enumerate()
                if thread.name == "loadgen-driver" and thread.is_alive()
            ]
            assert replaying == []

    def test_membership_swap_validates_and_rebinds(self):
        schedule = build_schedule(100.0, 0.1, seed=1, num_keys=20)
        endpoints = {
            "a": ("127.0.0.1", 1),
            "b": ("127.0.0.1", 2),
            "c": ("127.0.0.1", 3),
        }
        generator = LoadGenerator(endpoints, schedule)
        assert generator.members == frozenset({"a", "b", "c"})
        generator.set_membership(["a", "b"])
        assert generator.members == frozenset({"a", "b"})
        with pytest.raises(ConfigurationError):
            generator.set_membership(["a", "zz"])

    def test_generator_validation(self):
        schedule = build_schedule(100.0, 0.1)
        with pytest.raises(ConfigurationError):
            LoadGenerator({}, schedule)
        with pytest.raises(ConfigurationError):
            LoadGenerator({"a": ("127.0.0.1", 1)}, [])

    def test_decreasing_deadlines_are_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadGenerator(
                {"a": ("127.0.0.1", 1)}, [get_op(0, 0.5), get_op(1, 0.2)]
            )

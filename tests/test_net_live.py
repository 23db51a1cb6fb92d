"""Live-tier tests: real sockets, timeouts, faults, and equivalence.

Everything here crosses actual TCP connections on localhost: the
harness runs the asyncio node servers on one event loop, the client
calls are driven from a second loop through
:class:`~repro.net.runtime.EventLoopThread`, exactly as the CLI does.
The slow-but-total checks (timeout exhaustion, degrade-to-cold, the
socket-vs-in-process equivalence replay) keep their budgets tiny via
``backoff_scale`` so the suite stays fast.
"""

import asyncio
import time

import pytest

from repro.core.master import Master
from repro.core.retry import RetryPolicy
from repro.errors import TransportError
from repro.faults.sockets import DEAD_STOP_DELAY_S, SocketFaultPolicy
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.cluster import LiveCluster
from repro.net.server import LiveClusterHarness
from repro.net import livemigrate
from repro.net.livemigrate import (
    node_signature,
    run_live_migration,
    seed_records,
)
from repro.cli import main as cli_main
from repro.net.runtime import EventLoopThread
from repro.obs import create_telemetry
from repro.obs.export import read_jsonl
from repro.obs.trace import build_trees
from repro.wire import EXPORT_BATCH_KEYS

MEMORY = 8 * PAGE_SIZE
FAST_RETRY = RetryPolicy(
    max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.05
)


@pytest.fixture
def loop():
    with EventLoopThread(name="test-client") as thread:
        yield thread


class StepClock:
    """A manual wall clock for deterministic fault windows."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class DropFirstChunk:
    """Policy stub: abort the very first chunk, pass everything after."""

    def __init__(self) -> None:
        self.chunks = 0

    def disposition(self, node: str) -> tuple[str, float]:
        self.chunks += 1
        return ("drop", 0.0) if self.chunks == 1 else ("pass", 0.0)


class TestSocketFaultPolicy:
    def make(self, *specs, base_delay_s=0.1, now=0.0):
        clock = StepClock(now)
        policy = SocketFaultPolicy(
            FaultSchedule(list(specs)),
            base_delay_s=base_delay_s,
            clock=clock,
        )
        return policy, clock

    def test_inactive_schedule_passes(self):
        policy, _ = self.make(
            FaultSpec(5.0, "node_stall", node="n0", factor=0.5)
        )
        assert policy.disposition("n0") == ("pass", 0.0)

    def test_crash_drops_and_wins_over_stall(self):
        policy, clock = self.make(
            FaultSpec(0.0, "node_stall", node="n0", factor=0.5),
            FaultSpec(1.0, "node_crash", node="n0"),
        )
        clock.now = 0.5
        assert policy.disposition("n0")[0] == "delay"
        clock.now = 2.0
        assert policy.disposition("n0") == ("drop", 0.0)

    def test_throttle_delay_math(self):
        policy, clock = self.make(
            FaultSpec(0.0, "flow_throttle", dst="n0", factor=0.5),
            base_delay_s=0.1,
        )
        kind, delay = policy.disposition("n0")
        assert kind == "delay"
        assert delay == pytest.approx(0.1)  # 0.1 * (1/0.5 - 1)

    def test_zero_factor_is_dead_stop(self):
        policy, _ = self.make(
            FaultSpec(0.0, "node_stall", node="n0", factor=0.0)
        )
        assert policy.disposition("n0") == ("delay", DEAD_STOP_DELAY_S)

    def test_flow_fault_filters_by_dst_only(self):
        policy, _ = self.make(
            FaultSpec(0.0, "flow_fail", src="n9", dst="n0")
        )
        assert policy.disposition("n0") == ("drop", 0.0)
        assert policy.disposition("n1") == ("pass", 0.0)

    def test_fault_expires(self):
        policy, clock = self.make(
            FaultSpec(0.0, "flow_fail", dst="n0", duration_s=2.0)
        )
        assert policy.disposition("n0")[0] == "drop"
        clock.now = 3.0
        assert policy.disposition("n0") == ("pass", 0.0)


class TestClientServerRoundTrip:
    def test_kv_operations_over_sockets(self, loop):
        with LiveClusterHarness(["n0"], MEMORY) as harness:
            host, port = harness.endpoints["n0"]
            client = NodeClient("n0", host, port)
            assert loop.call(client.set("k", b"hello", flags=3))
            assert loop.call(client.get("k")) == (3, b"hello")
            assert loop.call(client.get("ghost")) is None
            assert loop.call(client.set("n", b"41"))
            assert loop.call(client.incr("n", 1)) == 42
            assert loop.call(client.delete("k"))
            assert loop.call(client.get("k")) is None
            assert loop.call(client.stats())["curr_items"] == 1
            loop.call(client.close())

    def test_pipelined_many_operations(self, loop):
        with LiveClusterHarness(["n0"], MEMORY) as harness:
            host, port = harness.endpoints["n0"]
            client = NodeClient("n0", host, port)
            entries = [(f"k{i}", i % 4, bytes([i]) * 10) for i in range(150)]
            assert loop.call(client.set_many(entries)) == 150
            values = loop.call(
                client.get_many([key for key, _, _ in entries] + ["ghost"])
            )
            assert values[:-1] == [
                (flags, payload) for _, flags, payload in entries
            ]
            assert values[-1] is None
            loop.call(client.close())

    def test_migration_commands_between_live_nodes(self, loop):
        """ts_dump -> mig_export -> batch_import across two servers."""
        with LiveClusterHarness(["src", "dst"], MEMORY) as harness:
            src = NodeClient("src", *harness.endpoints["src"])
            dst = NodeClient("dst", *harness.endpoints["dst"])
            records = seed_records(40, value_bytes=24, seed=3)
            assert loop.call(src.batch_import(records)) == 40

            rows = loop.call(src.ts_dump(0))
            assert {key for key, _, _ in rows} == {
                record.key for record in records
            }
            # merge-mode imports keep the shipped hotness timestamps.
            by_key = {r.key: r.last_access for r in records}
            assert all(by_key[key] == ts for key, ts, _ in rows)

            exported = loop.call(
                src.mig_export([record.key for record in records])
            )
            assert loop.call(dst.batch_import(exported)) == 40
            assert loop.call(dst.get(records[0].key)) == records[0].value
            loop.call(src.close())
            loop.call(dst.close())


class TestTimeoutAndRetry:
    def test_stalled_server_times_out_then_transport_error(self, loop):
        """A dead-stop stall exhausts the retry budget, one timeout per
        attempt, and surfaces as TransportError."""
        policy = SocketFaultPolicy(
            FaultSchedule(
                [FaultSpec(0.0, "node_stall", node="n0", factor=0.0)]
            )
        )
        telemetry = create_telemetry()
        with LiveClusterHarness(
            ["n0"], MEMORY, fault_policy=policy, drain_grace_s=0.1
        ) as harness:
            host, port = harness.endpoints["n0"]
            client = NodeClient(
                "n0",
                host,
                port,
                timeout_s=0.2,
                retry=FAST_RETRY,
                backoff_scale=0.1,
                telemetry=telemetry,
            )
            started = time.monotonic()
            with pytest.raises(TransportError, match="after 2 attempt"):
                loop.call(client.set("k", b"v"))
            elapsed = time.monotonic() - started
            assert elapsed < 2.0  # two 0.2 s timeouts plus slack
            metrics = telemetry.metrics
            assert (
                metrics.counter("net_client_retries_total", node="n0").value
                == 1
            )
            assert (
                metrics.counter(
                    "net_client_transport_errors_total", node="n0"
                ).value
                == 1
            )
            loop.call(client.close())

    def test_dropped_connection_is_retried_and_succeeds(self, loop):
        policy = DropFirstChunk()
        telemetry = create_telemetry()
        with LiveClusterHarness(
            ["n0"], MEMORY, fault_policy=policy, drain_grace_s=0.1
        ) as harness:
            host, port = harness.endpoints["n0"]
            client = NodeClient(
                "n0",
                host,
                port,
                retry=FAST_RETRY,
                backoff_scale=0.1,
                telemetry=telemetry,
            )
            assert loop.call(client.set("k", b"v"))
            assert loop.call(client.get("k")) == (0, b"v")
            assert policy.chunks >= 2
            assert (
                telemetry.metrics.counter(
                    "net_client_retries_total", node="n0"
                ).value
                == 1
            )
            loop.call(client.close())

    def test_connection_refused_is_transport_error(self, loop):
        # Bind-then-close guarantees a dead localhost port.
        import socket

        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = NodeClient(
            "gone",
            "127.0.0.1",
            port,
            timeout_s=0.5,
            retry=FAST_RETRY,
            backoff_scale=0.1,
        )
        with pytest.raises(TransportError):
            loop.call(client.get("k"))
        loop.call(client.close())


class TickClock:
    """A wall clock that advances a fixed step per reading, so a timed
    fault window expires after a known number of policy consultations
    without any real sleeping."""

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestMidStreamChunkDelays:
    """SocketFaultPolicy delay dispositions against a *pipelined* client.

    A large pipelined batch spans several RECV_CHUNK reads at the
    server, and the policy delays each chunk mid-stream -- the slow-node
    regime between "healthy" and "dead".  The client must either ride
    it out within its timeout, retry on a fresh connection, or give up
    with TransportError after the retry budget.
    """

    def big_batch(self, entries=300, value_bytes=512):
        # ~150 KB of wire bytes: at least three 64 KB server reads, so
        # the per-chunk delay is applied mid-request, not just once.
        return [
            (f"bulk:{i:04d}", i % 8, bytes([i % 251]) * value_bytes)
            for i in range(entries)
        ]

    def test_cumulative_chunk_delays_exhaust_retries(self, loop):
        """Per-chunk delays that sum past the timeout on every attempt
        end in TransportError, one timeout per attempt."""
        policy = SocketFaultPolicy(
            FaultSchedule(
                [FaultSpec(0.0, "node_stall", node="n0", factor=0.25)]
            ),
            base_delay_s=0.1,  # 0.1 * (1/0.25 - 1) = 0.3s per chunk
        )
        telemetry = create_telemetry()
        with LiveClusterHarness(
            ["n0"], MEMORY, fault_policy=policy, drain_grace_s=0.1
        ) as harness:
            host, port = harness.endpoints["n0"]
            client = NodeClient(
                "n0",
                host,
                port,
                timeout_s=0.4,
                retry=FAST_RETRY,
                backoff_scale=0.1,
                telemetry=telemetry,
            )
            started = time.monotonic()
            with pytest.raises(TransportError, match="after 2 attempt"):
                loop.call(client.set_many(self.big_batch()))
            elapsed = time.monotonic() - started
            # Two 0.4s timeouts plus backoff and slack, not the full
            # ~0.9s-per-attempt the delays would add up to.
            assert elapsed < 3.0
            metrics = telemetry.metrics
            assert (
                metrics.counter("net_client_retries_total", node="n0").value
                == 1
            )
            assert (
                metrics.counter(
                    "net_client_transport_errors_total", node="n0"
                ).value
                == 1
            )
            loop.call(client.close())

    def test_stall_window_expiring_lets_the_retry_succeed(self, loop):
        """First attempt lands inside the stall window and times out;
        the retry's fresh connection arrives after the window expired
        and the whole pipelined batch goes through."""
        clock = TickClock(step=3.0)
        policy = SocketFaultPolicy(
            FaultSchedule(
                [
                    FaultSpec(
                        0.0,
                        "node_stall",
                        node="n0",
                        factor=0.0,  # dead stop while active
                        duration_s=5.0,
                    )
                ]
            ),
            clock=clock,
        )
        telemetry = create_telemetry()
        with LiveClusterHarness(
            ["n0"], MEMORY, fault_policy=policy, drain_grace_s=0.1
        ) as harness:
            host, port = harness.endpoints["n0"]
            client = NodeClient(
                "n0",
                host,
                port,
                timeout_s=0.3,
                retry=FAST_RETRY,
                backoff_scale=0.1,
                telemetry=telemetry,
            )
            entries = self.big_batch(entries=40, value_bytes=64)
            # Attempt 1: policy reads elapsed=3.0 < 5.0 -> dead stop ->
            # client times out.  Attempt 2 (fresh connection): policy
            # reads elapsed=6.0 > 5.0 -> pass -> success.
            assert loop.call(client.set_many(entries)) == len(entries)
            assert (
                telemetry.metrics.counter(
                    "net_client_retries_total", node="n0"
                ).value
                == 1
            )
            values = loop.call(
                client.get_many([key for key, _, _ in entries])
            )
            assert values == [
                (flags, payload) for _, flags, payload in entries
            ]
            loop.call(client.close())


class TestHarnessNodeLifecycle:
    def test_stop_node_refuses_connections_and_restart_is_warm(self, loop):
        """stop_node kills only the listener: the cache survives, and
        start_node brings it back on the same port."""
        with LiveClusterHarness(
            ["n0", "n1"], MEMORY, drain_grace_s=0.2
        ) as harness:
            host, port = harness.endpoints["n0"]
            client = NodeClient(
                "n0",
                host,
                port,
                timeout_s=0.5,
                retry=FAST_RETRY,
                backoff_scale=0.1,
            )
            assert loop.call(client.set("k", b"v"))
            harness.stop_node("n0")
            with pytest.raises(TransportError):
                loop.call(client.get("k"))
            restarted = harness.start_node("n0")
            assert restarted == (host, port)
            assert loop.call(client.get("k")) == (0, b"v")
            loop.call(client.close())

    @pytest.mark.parametrize("pool_size", [2, 3])
    def test_restart_does_not_leave_dead_connections_in_the_pool(
        self, loop, pool_size
    ):
        """Idle pooled connections die with the listener.  The client
        sees their EOF when it happens and must not hand them out: with
        one dead connection per attempt of the default retry
        (``pool_size=3``) the request used to fail against a healthy
        node, and with fewer it paid a retry and a backoff for each."""
        telemetry = create_telemetry()
        with LiveClusterHarness(["n0"], MEMORY, drain_grace_s=0.2) as harness:
            client = NodeClient(
                "n0",
                *harness.endpoints["n0"],
                pool_size=pool_size,
                telemetry=telemetry,
            )

            async def fill_the_pool():
                await asyncio.gather(
                    *(client.set(f"k{i}", b"v") for i in range(pool_size))
                )

            loop.call(fill_the_pool())
            harness.stop_node("n0")
            harness.start_node("n0")
            time.sleep(0.05)  # the EOFs are in; nothing is in flight
            retries = telemetry.metrics.counter(
                "net_client_retries_total", node="n0"
            )
            assert loop.call(client.get("k0")) == (0, b"v")
            assert retries.value == 0
            loop.call(client.close())


class TestDegradeToColdOverSockets:
    def test_failed_import_flows_degrade_but_membership_switches(self):
        """Kill the import flows into one retained node mid-execution:
        the Master records the failed flows, completes the rest, and
        still switches membership -- degraded, never wedged."""
        schedule = FaultSchedule([])
        policy = SocketFaultPolicy(schedule, clock=StepClock())
        names = [f"live-{i:02d}" for i in range(4)]
        with LiveClusterHarness(
            names, MEMORY, fault_policy=policy, drain_grace_s=0.2
        ) as harness:
            live = LiveCluster(
                harness.endpoints,
                timeout_s=2.0,
                retry=FAST_RETRY,
                backoff_scale=0.05,
            )
            try:
                records = seed_records(400, value_bytes=32, seed=5)
                owners = live.route_many([r.key for r in records])
                groups = {}
                for record, owner in zip(records, owners):
                    groups.setdefault(owner, []).append(record)
                for name, group in groups.items():
                    live.nodes[name].batch_import(group, mode="merge")

                master = Master(live)
                plan = master.plan_scale_in(master.choose_retiring(1))
                victims = {dst for _, dst in plan.transfers}
                victim = sorted(victims)[0]
                # Fault goes live only now, after planning: imports into
                # the victim abort at the socket layer from here on.
                schedule.add(FaultSpec(0.0, "flow_fail", dst=victim))

                report = master.execute(plan)
                assert report.failed_flows
                assert {dst for _, dst in report.failed_flows} == {victim}
                assert report.outcome in ("partial", "cold")
                assert report.membership_after == sorted(plan.retained)
                assert (
                    report.completed_pairs
                    == len(plan.transfers) - len(report.failed_flows)
                )
            finally:
                # Clear the fault so pooled-connection teardown and the
                # harness drain do not wait out aborted sockets.
                schedule.specs.clear()
                live.close()

    def test_pair_failing_mid_relay_counts_the_batches_that_landed(self):
        """Arm the flow fault on one target after its first batch lands:
        that pair fails, and the batch already imported still counts."""
        schedule = FaultSchedule([])
        policy = SocketFaultPolicy(schedule, clock=StepClock())
        names = [f"live-{i:02d}" for i in range(3)]
        with LiveClusterHarness(
            names, MEMORY, fault_policy=policy, drain_grace_s=0.2
        ) as harness:
            live = LiveCluster(
                harness.endpoints,
                timeout_s=2.0,
                retry=FAST_RETRY,
                backoff_scale=0.05,
            )
            try:
                records = seed_records(4000, value_bytes=32, seed=5)
                owners = live.route_many([r.key for r in records])
                groups = {}
                for record, owner in zip(records, owners):
                    groups.setdefault(owner, []).append(record)
                for name, group in groups.items():
                    live.nodes[name].batch_import(group, mode="merge")

                master = Master(live)
                plan = master.plan_scale_in(master.choose_retiring(1))
                pair = next(
                    pair
                    for pair, keys in plan.transfers.items()
                    if len(keys) > EXPORT_BATCH_KEYS
                )
                victim = live.nodes[pair[1]]
                landed = []
                import_batch = victim.batch_import

                def import_then_fail_the_flow(migrated, mode="merge", now=0.0):
                    landed.append(import_batch(migrated, mode=mode, now=now))
                    schedule.add(FaultSpec(0.0, "flow_fail", dst=victim.name))
                    return landed[-1]

                victim.batch_import = import_then_fail_the_flow
                report = master.execute(plan)
                assert landed == [EXPORT_BATCH_KEYS]
                assert report.failed_flows == [pair]
                assert report.outcome == "partial"
                others = sum(
                    len(keys) for other, keys in plan.transfers.items()
                    if other != pair
                )
                assert report.items_imported == others + EXPORT_BATCH_KEYS
                # The failed slice was exported before its import failed.
                second = min(len(plan.transfers[pair]), 2 * EXPORT_BATCH_KEYS)
                assert report.items_exported == others + second
            finally:
                schedule.specs.clear()
                live.close()


class TestSocketEquivalence:
    def test_live_migration_matches_in_process_twin(self):
        result = run_live_migration(
            nodes=3,
            retire=1,
            items=250,
            value_bytes=32,
            seed=11,
            verify=True,
            backoff_scale=0.1,
        )
        assert result.warm
        assert result.failed_flows == 0
        assert result.verified is True
        assert result.mismatched_nodes == []
        assert result.items_seeded == 250
        assert result.items_exported == result.items_imported
        assert len(result.membership_after) == 2
        payload = result.to_dict()
        assert payload["outcome"] == "warm"
        assert payload["verified"] is True

    def test_a_swapped_pair_of_mru_neighbours_fails_verification(
        self, monkeypatch
    ):
        """Same items and stamps, two MRU neighbours on one live node in
        the wrong order: the sorted content signatures still agree, the
        order comparison does not."""
        harnesses: list[LiveClusterHarness] = []
        swapped: list[str] = []

        class Recording(LiveClusterHarness):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                harnesses.append(self)

        class Swapping(Master):
            def execute(self, plan, *args, **kwargs):
                report = super().execute(plan, *args, **kwargs)
                if not swapped:  # the live run; the twin runs after it
                    name = sorted(report.membership_after)[0]
                    swapped.append(name)
                    harness = harnesses[0]

                    async def swap_head_pair():
                        node = harness.nodes[name]
                        class_id = node.active_class_ids()[0]
                        mru = node.slabs.classes[class_id].mru
                        first = mru.head
                        mru.remove(first)
                        mru.insert_before(mru.head.next, first)

                    harness.loop.call(swap_head_pair())
                return report

        monkeypatch.setattr(livemigrate, "LiveClusterHarness", Recording)
        monkeypatch.setattr(livemigrate, "Master", Swapping)
        result = run_live_migration(
            nodes=3,
            retire=1,
            items=250,
            value_bytes=32,
            seed=11,
            verify=True,
            backoff_scale=0.1,
        )
        assert result.warm
        assert result.items_exported == result.items_imported
        assert result.verified is False
        assert result.mismatched_nodes == swapped

    def test_trace_jsonl_holds_the_master_tree_and_the_wire_spans(
        self, tmp_path, capsys
    ):
        """One tracer, one file: the Master's migration tree next to the
        scenario phases and the wire round trips they caused."""
        path = tmp_path / "live_migration_trace.jsonl"
        result = run_live_migration(
            nodes=3,
            retire=1,
            items=250,
            value_bytes=32,
            seed=11,
            verify=False,
            backoff_scale=0.1,
            telemetry=create_telemetry(
                "live-migrate", trace_sample=1.0, trace_seed=11
            ),
            trace_jsonl=str(path),
        )
        assert result.warm
        spans = read_jsonl(path).spans
        assert result.trace_spans == len(spans)
        roots = {root.name: root for root in build_trees(spans)}
        assert set(roots) == {"live_migration", "migration"}

        migration = roots["migration"]
        assert [c.name for c in migration.children] == [
            "plan",
            "import",
            "switch",
        ]
        for phase in ("scoring", "dump", "fusecache", "pair"):
            assert migration.find(phase) is not None, phase

        scenario = roots["live_migration"]
        seed, plan, execute = scenario.children
        assert [seed.name, plan.name, execute.name] == [
            "seed",
            "plan",
            "execute",
        ]
        # Choosing the retiring node fills the metadata snapshot the plan
        # reads, so its ts_dump round trips belong to the plan phase.
        rpcs = {c.span_id for c in plan.children if c.name == "client.rpc"}
        ts_dumps = plan.find_all("server.ts_dump")
        assert ts_dumps
        assert {span.parent_id for span in ts_dumps} <= rpcs
        assert execute.find_all("server.batch_import")
        assert execute.find_all("server.mig_export")

        assert cli_main(["obs", str(path), "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "in 2 trace(s)" in out
        assert "migration timeline (sim clock" in out
        assert "live-migrate:live_migration timeline (wall clock" in out
        for label in ("    pair ", "  switch ", "live-migrate:server.ts_dump"):
            assert label in out, label

    def test_node_signature_live_equals_in_process(self, loop):
        """The signature helper reads identical bytes through the wire
        and through the in-process API."""
        from repro.memcached.node import MemcachedNode

        records = seed_records(60, value_bytes=16, seed=21)
        twin = MemcachedNode("n0", MEMORY)
        twin.batch_import(records, mode="merge")
        with LiveClusterHarness(["n0"], MEMORY) as harness:
            live = LiveCluster(harness.endpoints)
            try:
                live.nodes["n0"].batch_import(records, mode="merge")
                assert node_signature(live.nodes["n0"]) == node_signature(
                    twin
                )
            finally:
                live.close()

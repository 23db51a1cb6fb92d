"""Multi-process cluster tests: lifecycle, crashes, orphans, equivalence.

Everything here spawns real OS processes (the ``spawn`` start method, so
each child re-imports the package from scratch), which makes the tests
an order of magnitude slower than the in-process live tier.  They carry
the ``proc`` marker and run in their own CI job, outside tier 1:

    PYTHONPATH=src python -m pytest -m proc -q

The equivalence test is the headline: the *unmodified* Master runs a
three-phase scale-in where every byte crosses a process boundary, and
the surviving nodes' contents must still match the in-process twin
byte for byte.
"""

import os
import time
import tracemalloc

import pytest

from repro.core.master import Master
from repro.errors import ConfigurationError, TransportError
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.cluster import LiveCluster
from repro.net.procs import ProcessClusterHarness
from repro.net.livemigrate import run_live_migration, seed_records
from repro.net.runtime import EventLoopThread

pytestmark = pytest.mark.proc

MEMORY = 8 * PAGE_SIZE


@pytest.fixture
def loop():
    with EventLoopThread(name="proc-test-client") as thread:
        yield thread


def process_gone(pid: int) -> bool:
    """True once ``pid`` no longer exists (reaped, not a zombie)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # someone else's recycled pid: ours is gone
        return True
    return False


def wait_for(predicate, timeout_s: float = 10.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestLifecycle:
    def test_spawn_readiness_and_wire_proof(self, loop):
        names = ["p0", "p1", "p2"]
        with ProcessClusterHarness(names, MEMORY) as harness:
            endpoints = harness.endpoints
            assert sorted(endpoints) == names
            # Distinct OS processes, each alive and distinct from us.
            pids = harness.pids
            assert len(set(pids.values())) == 3
            assert os.getpid() not in pids.values()
            for name in names:
                assert harness.is_alive(name)
            # Readiness is not just a pipe message: round-trip the
            # version command through every node's real listener.
            for name, (host, port) in endpoints.items():
                client = NodeClient(name, host, port)
                try:
                    assert "repro" in loop.call(client.version())
                finally:
                    loop.call(client.close())

    def test_endpoints_require_started_harness(self):
        harness = ProcessClusterHarness(["p0"], MEMORY)
        with pytest.raises(ConfigurationError):
            harness.endpoints

    def test_stop_is_graceful_and_idempotent(self):
        harness = ProcessClusterHarness(["p0", "p1"], MEMORY)
        harness.start()
        harness.stop()
        harness.stop()  # idempotent
        # SIGTERM drain exits 0 -- never escalated to SIGKILL.
        assert harness.exit_codes == {"p0": 0, "p1": 0}
        assert not harness.crash_events

    def test_stop_node_drains_one_without_crash_report(self):
        with ProcessClusterHarness(["p0", "p1", "p2"], MEMORY) as harness:
            pid = harness.pids["p1"]
            harness.stop_node("p1")
            assert wait_for(lambda: not harness.is_alive("p1"))
            assert process_gone(pid)
            # A requested stop is not a crash.
            time.sleep(3 * harness.poll_interval_s)
            assert not harness.crash_events
            assert harness.is_alive("p0") and harness.is_alive("p2")


class TestCrashDetection:
    def test_kill_node_is_reported_as_crash(self):
        seen = []
        with ProcessClusterHarness(
            ["p0", "p1", "p2"], MEMORY, on_crash=seen.append
        ) as harness:
            victim_pid = harness.pids["p1"]
            harness.kill_node("p1")
            assert wait_for(lambda: harness.crash_events)
            event = harness.crash_events[0]
            assert event.node == "p1"
            assert event.pid == victim_pid
            assert event.exitcode == -9
            assert event.restarted is False
            assert seen == [event]
            # The rest of the fleet is untouched.
            assert harness.is_alive("p0") and harness.is_alive("p2")

    def test_restart_crashed_heals_cold_on_same_port(self, loop):
        with ProcessClusterHarness(
            ["p0", "p1"], MEMORY, restart_crashed=True
        ) as harness:
            host, port = harness.endpoints["p1"]
            old_pid = harness.pids["p1"]
            client = NodeClient("p1", host, port)

            def cold_cache() -> bool:
                try:
                    return loop.call(client.get("k")) is None
                except TransportError:
                    return False  # listener not back yet; keep polling

            try:
                assert loop.call(client.set("k", b"payload"))
                harness.kill_node("p1")
                assert wait_for(
                    lambda: any(
                        e.restarted for e in harness.crash_events
                    )
                )
                assert wait_for(lambda: harness.is_alive("p1"))
                assert harness.pids["p1"] != old_pid
                # Same endpoint, new process, empty cache: shared-nothing
                # restarts are cold.
                assert harness.endpoints["p1"] == (host, port)
                assert wait_for(cold_cache)
            finally:
                loop.call(client.close())


class TestNoOrphans:
    def test_stop_reaps_every_child(self):
        harness = ProcessClusterHarness(["p0", "p1", "p2"], MEMORY)
        harness.start()
        pids = list(harness.pids.values())
        assert len(pids) == 3
        harness.stop()
        for pid in pids:
            assert process_gone(pid), f"orphaned child pid {pid}"

    def test_context_manager_exit_reaps_after_crash(self):
        with ProcessClusterHarness(["p0", "p1"], MEMORY) as harness:
            pids = list(harness.pids.values())
            harness.kill_node("p0")
            assert wait_for(lambda: harness.crash_events)
        for pid in pids:
            assert process_gone(pid), f"orphaned child pid {pid}"


class TestMigrationEquivalence:
    def test_three_phase_migration_matches_in_process_twin(self):
        result = run_live_migration(
            nodes=3,
            retire=1,
            items=400,
            value_bytes=48,
            seed=13,
            process_cluster=True,
            verify=True,
        )
        assert result.warm
        assert result.verified is True
        assert not result.mismatched_nodes
        assert result.items_exported == result.items_imported
        assert result.items_exported > 0
        assert len(result.membership_after) == 2

    def test_process_cluster_rejects_loop_instrumentation(self):
        # Fault injection and the sanitizer hook in-process servers;
        # composing them with child processes would silently no-op.
        with pytest.raises(ConfigurationError):
            run_live_migration(
                nodes=2, items=10, process_cluster=True, sanitize=True
            )


def execute_peak_bytes(items: int) -> tuple[int, int]:
    """Seed ``items`` records on three node processes, retire one, and
    return (items imported, tracemalloc peak inside ``Master.execute``).

    The nodes are other processes, so the trace sees the controller
    alone: the Master, its clients and their event loop."""
    names = ["p0", "p1", "p2"]
    with ProcessClusterHarness(names, MEMORY) as harness:
        live = LiveCluster(harness.endpoints)
        try:
            records = seed_records(items, value_bytes=256, seed=3)
            owners = live.route_many([record.key for record in records])
            for name in names:
                live.nodes[name].batch_import(
                    [r for r, owner in zip(records, owners) if owner == name]
                )
            del records, owners
            # Prepend keeps the nodes' merge walk out of the runtime; the
            # controller's work does not depend on the import mode.
            master = Master(live, import_mode="prepend")
            plan = master.plan_scale_in(master.choose_retiring(1))
            tracemalloc.start()
            try:
                report = master.execute(plan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            live.close()
    assert report.outcome == "warm"
    return report.items_imported, peak


class TestControllerMemory:
    def test_execute_peak_does_not_grow_with_the_migration(self):
        """Pairs are relayed one wire batch at a time, so a migration
        four times larger leaves the controller's peak where it was."""
        small_items, small_peak = execute_peak_bytes(4_000)
        large_items, large_peak = execute_peak_bytes(16_000)
        assert large_items > 3.5 * small_items
        assert large_peak < 1.5 * small_peak, (small_peak, large_peak)

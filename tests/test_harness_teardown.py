"""Teardown hygiene: repeated harness cycles leak nothing.

Every live harness (backend fleet, proxy tier) owns sockets and event
loop threads.  A long test session -- or any embedding process -- sets
them up and tears them down many times, so ``stop()`` must actually
return the process to its prior state: every listener closed, every
pooled client connection closed *while its loop still runs* (a loop
stopped first strands its sockets until garbage collection), and every
loop thread joined.

Each cycle pushes real traffic through the harness first, because the
expensive state (the router's pooled backend connections, the cluster's
client pools) is dialed lazily on first use -- an idle setup/teardown
cycle has nothing to leak.  The fd assertions then keep every stopped
harness referenced and do **not** run the garbage collector before
counting: a leak that only a finalizer would clean up is still a leak.

The regression this file pins: proxy teardown used to stop the proxy
loop without closing the router, stranding the router's pooled backend
connections (one fd per touched backend per cycle).
"""

import os
import threading

import pytest

from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.cluster import LiveCluster
from repro.net.runtime import EventLoopThread
from repro.net.server import LiveClusterHarness
from repro.proxy.server import ProxyHarness

MEMORY = 8 * PAGE_SIZE
CYCLES = 3

# A couple of fds of slack for one-off lazily-created state; a
# per-cycle leak of even one socket per backend blows through this.
FD_SLACK = 2


@pytest.fixture
def loop():
    with EventLoopThread(name="teardown-test-client") as thread:
        yield thread


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def live_threads() -> set[str]:
    return {thread.name for thread in threading.enumerate()}


def exercise_cluster(harness: LiveClusterHarness) -> None:
    """Touch every backend so client pools actually dial."""
    with LiveCluster(harness.endpoints) as live:
        stored = live.set_many(
            [(f"cyc-{i:03d}", (0, b"x" * 16), 16) for i in range(32)]
        )
        assert stored == 32


def exercise_proxy(harness: ProxyHarness, loop: EventLoopThread) -> None:
    """Spread keys through the proxy so it dials every backend."""
    host, port = harness.proxy_endpoint
    client = NodeClient("via-proxy", host, port)
    try:
        stored = loop.call(
            client.set_many(
                (f"cyc-{i:03d}", 0, b"x" * 16) for i in range(32)
            )
        )
        assert stored == 32
        assert loop.call(client.get("cyc-000")) is not None
    finally:
        loop.call(client.close())


class TestLiveClusterHarnessTeardown:
    def test_repeated_cycles_leak_no_fds_or_threads(self):
        # Warm up once so lazily-created module state (loggers, caches)
        # does not count against the measured cycles.
        with LiveClusterHarness(["n0", "n1"], MEMORY) as harness:
            exercise_cluster(harness)
        fd_baseline = open_fds()
        thread_baseline = live_threads()
        stopped = []
        for _ in range(CYCLES):
            harness = LiveClusterHarness(["n0", "n1"], MEMORY)
            with harness:
                exercise_cluster(harness)
            stopped.append(harness)  # keep referenced: no gc rescue
        assert open_fds() <= fd_baseline + FD_SLACK
        assert live_threads() == thread_baseline


class TestProxyHarnessTeardown:
    def test_repeated_cycles_leak_no_fds_or_threads(self, loop):
        with ProxyHarness(["b0", "b1"], MEMORY) as harness:
            exercise_proxy(harness, loop)
        fd_baseline = open_fds()
        thread_baseline = live_threads()
        stopped = []
        for _ in range(CYCLES):
            harness = ProxyHarness(["b0", "b1"], MEMORY)
            with harness:
                exercise_proxy(harness, loop)
            stopped.append(harness)  # keep referenced: no gc rescue
        assert open_fds() <= fd_baseline + FD_SLACK
        assert live_threads() == thread_baseline

    def test_stop_is_idempotent(self):
        harness = ProxyHarness(["b0"], MEMORY)
        harness.start()
        harness.stop()
        harness.stop()

"""The protocol listener behind :class:`NodeServer` and :class:`ProxyServer`.

Every accepted connection is one :class:`~repro.net.server.Connection`:
a chunk in, its responses out in one ``transport.write``.  A chunk that
cannot be answered at once -- a fault-policy delay, a stepped
``batch_import``, a proxy command awaiting its router -- *holds* the
connection: a chunk arriving before its responses are written waits,
with reading paused.  A full write buffer pauses reading the same way.
These tests pin what that
must keep: a peer that never reads cannot grow the server's buffer past
the high-water mark plus one chunk's responses, a stalled connection is
delayed in order without delaying its neighbours on the same loop,
``stop()`` during a hold returns promptly and leaves nothing scheduled,
and the ``stats obs`` exposition is the one it was on asyncio streams.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import pytest

from repro import wire
from repro.faults.sockets import DEAD_STOP_DELAY_S, SocketFaultPolicy
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.node import MemcachedNode
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.server import LiveClusterHarness
from repro.net.runtime import EventLoopThread
from repro.net.server import NodeServer, StreamListener
from repro.obs import create_telemetry
from repro.obs.scrape import parse_prometheus
from repro.proxy.server import ProxyHarness
from tests.test_stepped_import import (
    CLOCK_BASE,
    cold_records,
    import_bytes,
    planted_node,
    read_reply,
    readable,
    wait_until,
)

MEMORY = 8 * PAGE_SIZE
VALUE = b"v" * 65536
GETS = 1024
BATCH = 16
KEYS = [f"big:{i:02d}" for i in range(BATCH)]
GET_BATCH = b"".join(f"get {key}\r\n".encode() for key in KEYS)
REPLIES = [wire.value_block(key, 0, VALUE) + wire.END for key in KEYS]


@pytest.fixture
def loop():
    with EventLoopThread(name="listener-test-client") as thread:
        yield thread


def only_connection(listener: StreamListener) -> Any:
    wait_until(lambda: len(listener._connections) == 1, "one connection")
    return next(iter(listener._connections))


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------


@contextmanager
def big_values(
    kind: str, loop: EventLoopThread
) -> Iterator[tuple[StreamListener, Callable[[], float]]]:
    """A listener serving ``KEYS`` (each ``VALUE``) and a reading of how
    many of the client's gets it has taken in."""
    if kind == "node":
        harness: Any = LiveClusterHarness(["n0"], MEMORY, drain_grace_s=0.2)
    else:
        harness = ProxyHarness(["n0", "n1"], MEMORY, drain_grace_s=0.2)
    with harness:
        if kind == "node":
            listener = harness.servers["n0"]
            stats = harness.nodes["n0"].stats
            progress = lambda: stats.get_hits  # noqa: E731
        else:
            listener = harness.server
            commands = harness.telemetry.metrics.counter("proxy_commands_total")
            progress = lambda: commands.value  # noqa: E731
        client = NodeClient("seed", *listener.endpoint)
        assert loop.call(client.set_many((key, 0, VALUE) for key in KEYS)) == BATCH
        loop.call(client.close())
        wait_until(lambda: not listener._connections, "the seeding client to go")
        yield listener, progress


@pytest.mark.parametrize("kind", ["node", "proxy"])
def test_a_peer_that_does_not_read_stops_the_server_reading(kind, loop):
    """1 024 pipelined gets of a 64 KiB value, sent a batch of 16 at a
    time once the server has taken in the last one: the server stops
    reading, its write buffer stays under the high-water mark plus one
    chunk's replies, and every reply then arrives in order, intact."""
    with big_values(kind, loop) as (listener, progress):
        with socket.create_connection(listener.endpoint, timeout=30.0) as sock:
            conn = only_connection(listener)
            high_water = conn.transport.get_write_buffer_limits()[1]
            bound = high_water + BATCH * len(REPLIES[0])
            base = progress()

            def send_all() -> None:
                for batch in range(GETS // BATCH):
                    wait_until(
                        lambda: progress() - base >= BATCH * batch,
                        "the server to take in the last batch",
                    )
                    sock.sendall(GET_BATCH)

            sender = threading.Thread(target=send_all, daemon=True)
            sender.start()
            wait_until(
                lambda: conn.transport.get_write_buffer_size() > high_water
                or progress() - base >= GETS,
                "the server's write buffer to pass its high-water mark",
            )
            taken = progress()
            assert taken - base < GETS, "the server read every get unread"
            time.sleep(0.2)
            assert not conn.transport.is_reading()
            assert progress() == taken
            largest = conn.transport.get_write_buffer_size()
            assert largest <= bound

            received = bytearray()
            answered = 0
            while answered < GETS:
                chunk = sock.recv(1 << 20)
                assert chunk, f"connection closed after {answered} replies"
                received += chunk
                largest = max(largest, conn.transport.get_write_buffer_size())
                while answered < GETS:
                    reply = REPLIES[answered % BATCH]
                    if len(received) < len(reply):
                        break
                    assert received[: len(reply)] == reply, f"reply {answered}"
                    del received[: len(reply)]
                    answered += 1
            sender.join(timeout=30.0)
            assert not sender.is_alive()
            assert not received
            assert largest <= bound


# ----------------------------------------------------------------------
# Holds
# ----------------------------------------------------------------------


def test_a_stalled_node_delays_its_chunks_in_order_and_not_its_neighbour():
    delay = 0.5
    policy = SocketFaultPolicy(
        FaultSchedule([FaultSpec(0.0, "node_stall", node="slow", factor=0.5)]),
        base_delay_s=delay,  # delay * (1 / 0.5 - 1) per chunk
    )
    with LiveClusterHarness(
        ["slow", "fast"], MEMORY, fault_policy=policy, drain_grace_s=0.1
    ) as harness:
        slow_server = harness.servers["slow"]
        with (
            socket.create_connection(harness.endpoints["slow"], timeout=30.0) as slow,
            socket.create_connection(harness.endpoints["fast"], timeout=30.0) as fast,
        ):
            started = time.monotonic()
            slow.sendall(b"set k 0 0 1\r\n1\r\nget k\r\n")
            wait_until(lambda: bool(slow_server._held), "the first chunk's hold")
            slow.sendall(b"set k 0 0 1\r\n2\r\nget k\r\n")
            transport = only_connection(slow_server).transport
            wait_until(
                lambda: not transport.is_reading(), "the second chunk held back"
            )

            asked = time.monotonic()
            fast.sendall(b"version\r\n")
            assert read_reply(fast, wire.CRLF).startswith(b"VERSION ")
            assert time.monotonic() - asked < delay / 2
            assert not readable(slow)

            expected = (
                b"STORED\r\n" + wire.value_block("k", 0, b"1") + wire.END
                + b"STORED\r\n" + wire.value_block("k", 0, b"2") + wire.END
            )
            received = b""
            while len(received) < len(expected):
                chunk = slow.recv(65536)
                assert chunk
                received += chunk
            assert received == expected
            assert time.monotonic() - started >= 2 * delay  # two held chunks


async def leftovers() -> tuple[list[asyncio.Task], list[asyncio.TimerHandle]]:
    """The running loop's other tasks and its live timers."""
    loop = asyncio.get_running_loop()
    current = asyncio.current_task()
    tasks = [task for task in asyncio.all_tasks() if task is not current]
    timers = [
        handle
        for handle in loop._scheduled  # type: ignore[attr-defined]
        if not handle.cancelled()
    ]
    return tasks, timers


@pytest.mark.parametrize("hold", ["dead-stop", "stepped-import"])
def test_stop_during_a_hold_returns_promptly_and_leaves_nothing_scheduled(hold):
    grace = 0.1
    if hold == "dead-stop":
        node = MemcachedNode("n", MEMORY)
        policy: SocketFaultPolicy | None = SocketFaultPolicy(
            FaultSchedule([FaultSpec(0.0, "node_stall", node="n", factor=0.0)])
        )
        request = b"get k\r\n"
    else:
        node, policy = planted_node(), None
        request = import_bytes(cold_records())
    server = NodeServer(
        node,
        lambda: CLOCK_BASE + time.monotonic(),
        fault_policy=policy,
        drain_grace_s=grace,
    )
    with EventLoopThread(name="held-node") as loop:
        loop.call(server.start(), timeout=10.0)
        with socket.create_connection(server.endpoint, timeout=30.0) as sock:
            sock.sendall(request)
            wait_until(lambda: bool(server._held), "the hold")
            if hold == "dead-stop":
                assert policy is not None
                assert policy.disposition("n") == ("delay", DEAD_STOP_DELAY_S)
            else:
                wait_until(lambda: node.stats.imported > 0, "the import to start")
            started = time.monotonic()
            loop.call(server.stop(), timeout=30.0)
            assert time.monotonic() - started < grace + 1.0
            assert sock.recv(65536) == b""  # closed, nothing answered
        tasks, timers = loop.call(leftovers(), timeout=10.0)
        assert tasks == [] and timers == []
        assert not server._held and not server._connections
    if hold == "stepped-import":
        assert 0 < node.stats.imported < len(cold_records())


# ----------------------------------------------------------------------
# Telemetry parity
# ----------------------------------------------------------------------

# `stats obs` family -> label names, as the stream listeners exported them.
NODE_FAMILIES = {
    "net_server_bytes_received_total": ("node",),
    "net_server_bytes_sent_total": ("node",),
    "net_server_connections_total": ("node",),
    "net_server_execute_seconds": ("node",),
    "net_server_fault_drops_total": ("node",),
    "net_server_parse_seconds": ("node",),
    "net_server_write_seconds": ("node",),
    "node_commands_total": ("op",),
    "node_evictions_total": (),
    "node_items_imported_total": (),
}
PROXY_FAMILIES = {
    **NODE_FAMILIES,
    "net_client_pipeline_depth": ("node",),
    "net_client_queue_wait_seconds": ("node",),
    "net_client_requests_total": ("node",),
    "net_client_retries_total": ("node",),
    "net_client_roundtrip_seconds": ("node",),
    "net_client_transport_errors_total": ("node",),
    "proxy_active_backends": (),
    "proxy_breaker_reject_seconds": (),
    "proxy_breaker_rejections_total": ("backend",),
    "proxy_breaker_state": ("backend",),
    "proxy_breaker_transitions_total": ("backend", "to"),
    "proxy_coalesce_followers_total": (),
    "proxy_coalesce_leaders_total": (),
    "proxy_coalesce_wait_seconds": (),
    "proxy_commands_total": (),
    "proxy_connections_total": (),
    "proxy_degraded_total": ("op",),
    "proxy_fanout_reads_total": (),
    "proxy_fanout_seconds": (),
    "proxy_hot_keys": (),
    "proxy_membership_switches_total": (),
    "proxy_protocol_errors_total": (),
    "proxy_read_repairs_total": (),
    "proxy_replica_demotions_total": (),
    "proxy_replica_promotions_total": (),
    "proxy_requests_total": ("op",),
    "proxy_route_seconds": ("op",),
    "proxy_stale_serves_total": (),
}


def families(page: str) -> dict[str, tuple[str, ...]]:
    """Family -> label names of a Prometheus page (``le`` aside)."""
    found: dict[str, set[tuple[str, ...]]] = {
        line.split()[2]: set()
        for line in page.splitlines()
        if line.startswith("# TYPE ")
    }
    for sample in parse_prometheus(page):
        name = sample.name
        if name not in found:
            name = name.rsplit("_", 1)[0]  # a histogram's _bucket/_sum/_count
        found[name].add(tuple(key for key, _ in sample.labels if key != "le"))
    assert all(len(keys) == 1 for keys in found.values()), found
    return {name: keys.pop() for name, keys in found.items()}


async def traffic(client: NodeClient) -> str:
    assert await client.set("k", b"v")
    await client.get("k")
    await client.get_many(["k", "ghost"])
    await client.delete("k")
    return await client.stats_obs()


def test_stats_obs_families_are_unchanged(loop):
    telemetry = create_telemetry("node")
    with LiveClusterHarness(
        ["n0"], MEMORY, telemetry=telemetry, metrics=telemetry.metrics
    ) as harness:
        client = NodeClient("n0", *harness.endpoints["n0"])
        node_page = loop.call(traffic(client))
        loop.call(client.close())
    with ProxyHarness(["n0", "n1"], MEMORY, drain_grace_s=0.2) as proxy:
        client = NodeClient("proxy", *proxy.proxy_endpoint)
        proxy_page = loop.call(traffic(client))
        loop.call(client.close())
    assert families(node_page) == NODE_FAMILIES
    assert families(proxy_page) == PROXY_FAMILIES


def test_parse_and_write_are_observed_once_per_chunk():
    telemetry = create_telemetry("node")
    hit = wire.value_block("k", 0, b"v")
    exchanges = [
        (b"set k 0 0 1\r\nv\r\n", b"STORED\r\n"),
        (b"get k\r\n", hit + wire.END),
        (b"get k ghost\r\nget k\r\n", hit + wire.END + hit + wire.END),
    ]
    with LiveClusterHarness(
        ["n0"], MEMORY, telemetry=telemetry, metrics=telemetry.metrics
    ) as harness:
        with socket.create_connection(harness.endpoints["n0"], timeout=30.0) as sock:
            for chunk, reply in exchanges:
                sock.sendall(chunk)
                assert read_reply(sock, reply) == reply
    metrics = telemetry.metrics
    for family in ("net_server_parse_seconds", "net_server_write_seconds"):
        assert metrics.histogram(family, node="n0").count == len(exchanges), family

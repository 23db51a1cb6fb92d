"""Stepped ``batch_import``: a node keeps serving while it imports.

A merge record resumes its walk where the record before it landed, so
a batch sent hottest first costs a few microseconds a record.  A record
hotter than the one before it still walks its class's MRU list from the
head, so a batch colder than every local item, each record hotter than
the last, is the worst case: one walk past every local item per record
(``RECORDS`` of them take 0.26-0.29 s after the first step on a 2-vCPU
box).  The node applies a batch one record per step
(:meth:`~repro.memcached.node.MemcachedNode.import_steps`), the protocol
yields through it
(:meth:`~repro.memcached.protocol.TextProtocolServer.feed_stepwise`) and
:class:`~repro.net.server.NodeServer` returns to its event loop every
:data:`~repro.net.server.STEP_BUDGET_S`.  These tests pin what that
changes -- gets from another connection are answered mid-import, and no
loop callback runs long -- and what it must not: node state and replies
are exactly those of the one-piece import, rejected batches apply
nothing, and a server stopped mid-import returns promptly with every
applied record whole.
"""

from __future__ import annotations

import asyncio
import gc
import select
import socket
import struct
import time
from contextlib import contextmanager
from typing import Callable, Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.check.invariants import check_lru
from repro.check.loopcheck import LoopSanitizer
from repro.errors import TransportError
from repro.memcached.items import Item
from repro.memcached.node import MemcachedNode, MigratedItem, drain
from repro.memcached.protocol import TextProtocolServer
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net import server as server_module
from repro.net.runtime import EventLoopThread
from repro.net.server import NodeServer, run_steps
from repro.obs import Telemetry, create_telemetry
from tests.test_merge_import import HeadWalkNode
from tests.test_protocol_fuzz import command_lines, import_records, import_wire

LOCAL = 3000
RECORDS = 3000
PAYLOAD = b"v" * 64
CLOCK_BASE = 1.0e6  # server time starts after every planted timestamp


def planted_node(
    name: str = "n",
    metrics: object = None,
    node_type: type[MemcachedNode] = MemcachedNode,
) -> MemcachedNode:
    """One slab class holding ``LOCAL`` items, stamped 1000.0 onward."""
    node = node_type(name, 16 * PAGE_SIZE, metrics=metrics)
    for i in range(LOCAL):
        assert node.set(local_key(i), (0, PAYLOAD), len(PAYLOAD), 1000.0 + i)
    return node


def local_key(i: int) -> str:
    return f"local:{i:05d}"


def cold_records(count: int = RECORDS) -> list[MigratedItem]:
    """``count`` records colder than every local item, each hotter than
    the one before: every merge insert after the first walks past all
    ``LOCAL`` items from the head (``import_merge_fallbacks``)."""
    return [
        MigratedItem(f"mig:{i:05d}", (0, PAYLOAD), len(PAYLOAD), 1.0 + i * 0.01)
        for i in range(count)
    ]


def hottest_first(count: int) -> list[MigratedItem]:
    """``count`` records colder than every local item, each colder than
    the one before: every merge insert resumes where the last one landed,
    so the batch is cheap to apply and its framing and decoding weigh
    most."""
    return cold_records(count)[::-1]


def import_bytes(records: list[MigratedItem], mode: str = "merge") -> bytes:
    return wire.encode_request(
        "batch_import", [mode, f"{len(records)}"], wire.items_payload(records)
    )


@contextmanager
def serving(
    node: MemcachedNode,
    sanitizer: LoopSanitizer | None = None,
    drain_grace_s: float = 2.0,
    telemetry: Telemetry | None = None,
) -> Iterator[tuple[EventLoopThread, NodeServer]]:
    """``node`` behind a started :class:`NodeServer` on its own loop."""
    server = NodeServer(
        node,
        lambda: CLOCK_BASE + time.monotonic(),
        drain_grace_s=drain_grace_s,
        telemetry=telemetry,
    )
    with EventLoopThread(name="stepped-node", sanitizer=sanitizer) as loop:
        loop.call(server.start(), timeout=10.0)
        try:
            yield loop, server
        finally:
            loop.call(server.stop(), timeout=30.0)


def wait_until(predicate: Callable[[], bool], what: str) -> None:
    """Poll ``predicate``; the deadline only guards against a hang."""
    deadline = time.monotonic() + 30.0
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.0005)


def read_reply(sock: socket.socket, terminator: bytes) -> bytes:
    data = b""
    while not data.endswith(terminator):
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {data!r}"
        data += chunk
    return data


def readable(sock: socket.socket) -> bool:
    return bool(select.select([sock], [], [], 0)[0])


def run_interleaved_import(
    node: MemcachedNode,
    endpoint: tuple[str, int],
    gets: int = 3,
    records: list[MigratedItem] | None = None,
) -> list[tuple[bytes, bool, int]]:
    """Connection A sends a merge import (by default the cold one); once
    it is under way, connection B sends ``gets`` gets of local keys one
    after another.  Returns, per get, its reply, whether A's reply was
    readable when it arrived, and how many records were applied by
    then."""
    records = cold_records() if records is None else records
    observed = []
    with socket.create_connection(endpoint, timeout=30.0) as a, \
            socket.create_connection(endpoint, timeout=30.0) as b:
        a.sendall(import_bytes(records))
        wait_until(lambda: node.stats.imported > 0, "the import to start")
        for i in range(gets):
            keys = [local_key(i), local_key(LOCAL - 1 - i)]
            b.sendall(f"get {' '.join(keys)}\r\n".encode())
            reply = read_reply(b, wire.END)
            observed.append((reply, readable(a), node.stats.imported))
        assert read_reply(a, wire.CRLF) == f"IMPORTED {len(records)}\r\n".encode()
    return observed


# ----------------------------------------------------------------------
# The node keeps serving while it imports
# ----------------------------------------------------------------------


def test_gets_are_answered_before_a_long_import_replies():
    node = planted_node()
    with serving(node) as (_, server):
        observed = run_interleaved_import(node, server.endpoint)
    for i, (reply, import_replied, applied) in enumerate(observed):
        assert not import_replied, f"get {i} waited for the whole import"
        assert applied < RECORDS
        assert reply == (
            wire.value_block(local_key(i), 0, PAYLOAD)
            + wire.value_block(local_key(LOCAL - 1 - i), 0, PAYLOAD)
            + wire.END
        )
    assert node.stats.imported == RECORDS
    assert node.stats.import_merge_fallbacks == RECORDS - 1
    assert check_lru(node, require_sorted_timestamps=True) == LOCAL + RECORDS


@pytest.mark.parametrize(
    "batch",
    [
        pytest.param(cold_records, id="3000-coldest-first"),
        pytest.param(lambda: hottest_first(20_000), id="20000-hottest-first"),
    ],
)
def test_a_long_import_never_holds_the_loop(batch):
    """Framing, decoding and applying the batch all stay inside the
    50 ms bound: the block is one sized payload, and each record is
    decoded in the step that applies it."""
    records = batch()
    # Free what earlier tests in this process left behind first: their
    # cyclic garbage would otherwise be finalized inside whichever loop
    # callback the next full collection lands in (88-129 ms under -X dev
    # after the live-tier test files), whatever that callback does.
    gc.collect()
    sanitizer = LoopSanitizer(slow_callback_s=0.05)
    node = planted_node()
    with serving(node, sanitizer=sanitizer) as (_, server):
        run_interleaved_import(node, server.endpoint, gets=1, records=records)
    assert node.stats.imported == len(records)
    assert sanitizer.report()["by_kind"].get("slow-callback", 0) == 0, (
        sanitizer.report()["findings"]
    )


# ----------------------------------------------------------------------
# Equivalence with the one-piece import
# ----------------------------------------------------------------------


def one_piece_import(
    node: MemcachedNode, migrated: list[MigratedItem], mode: str, now: float
) -> int:
    """The import loop as it ran before it was stepped, as the reference."""
    count = 0
    for record in migrated:
        existing = node.peek(record.key)
        if existing is not None:
            node._unlink(existing)
        item = Item(record.key, record.value, record.value_size, 0.0)
        item.cas_id = node._next_cas()
        if mode == "fresh":
            item.last_access = now
            item.created_at = now
        else:
            item.last_access = record.last_access
            item.created_at = record.created_at or record.last_access
        if mode == "merge":
            inserted = node._insert_sorted(item)
        else:
            inserted = node._insert(item)
        if inserted:
            count += 1
            node.stats.imported += 1
    return count


def node_state(node: MemcachedNode) -> tuple:
    return (
        sorted(node.keys()),
        [
            [
                (item.key, item.value, item.last_access, item.created_at, item.cas_id)
                for item in node.items_in_mru_order(class_id)
            ]
            for class_id in range(len(node.slabs.classes))
        ],
        node.stats,
    )


small_keys = st.integers(0, 40).map(lambda i: f"k{i}")


@given(
    local=st.lists(st.tuples(small_keys, st.integers(1, 3000)), max_size=60),
    records=st.lists(
        st.tuples(small_keys, st.integers(1, 3000), st.floats(0.0, 100.0)),
        max_size=30,
    ),
    mode=st.sampled_from(["merge", "prepend", "fresh"]),
)
@settings(max_examples=150, deadline=None)
def test_draining_the_steps_matches_the_one_piece_import(local, records, mode):
    """Keys, per-class MRU order, cas ids, imported and eviction counts."""
    migrated = [
        MigratedItem(key, f"m:{key}", size, last_access)
        for key, size, last_access in records
    ]
    nodes = []
    for _ in range(2):
        # Two pages: imports evict, and some sizes get no page at all.
        node = MemcachedNode("n", 2 * PAGE_SIZE)
        for i, (key, size) in enumerate(local):
            node.set(key, f"l:{key}", size, float(i))
        nodes.append(node)
    stepped, reference = nodes
    assert drain(stepped.import_steps(migrated, mode, now=50.0)) == (
        one_piece_import(reference, migrated, mode, now=50.0)
    )
    assert node_state(stepped) == node_state(reference)
    check_lru(stepped, require_sorted_timestamps=False)


def test_client_ops_on_the_cursor_item_between_steps_keep_the_head_walk_order():
    """While a stepped merge import runs, a second connection gets, sets
    and deletes the record the import placed last (its cursor): the node
    ends where a node placing every record by a walk from the head does."""
    now = [CLOCK_BASE]
    records = [
        MigratedItem(f"m{i}", (0, PAYLOAD), len(PAYLOAD), 1500.0 - i * 7.5)
        for i in range(60)
    ]
    nodes = [planted_node(), planted_node(node_type=HeadWalkNode)]
    replies = []
    for node in nodes:
        importer = TextProtocolServer(node, lambda: now[0])
        other = TextProtocolServer(node, lambda: now[0])
        steps = importer.feed_stepwise(import_bytes(records) + b"get m0\r\n")
        assert not isinstance(steps, bytes)
        out = []
        for applied in range(1, len(records) + 1):
            next(steps)
            cursor = records[applied - 1].key
            now[0] += 1.0
            if applied % 10 == 3:
                out.append(other.execute(f"get {cursor}"))
            elif applied % 10 == 6:
                out.append(other.execute(f"set {cursor} 0 0 2", b"cl"))
            elif applied % 10 == 9:
                out.append(other.execute(f"delete {cursor}"))
        with pytest.raises(StopIteration) as done:
            next(steps)
        out.append(done.value.value)
        replies.append(out)
        now[0] = CLOCK_BASE
    assert replies[0] == replies[1]
    assert replies[0][-1].startswith(b"IMPORTED 60\r\nVALUE m0 0 64\r\n")
    assert node_state(nodes[0]) == node_state(nodes[1])
    assert check_lru(nodes[0], require_sorted_timestamps=True) == LOCAL + 60 - 6


def server_driven(chunks: list[bytes]) -> tuple[bytes, TextProtocolServer]:
    """``chunks`` through the steps the way :class:`NodeServer` drives
    them, returning to the loop after every step."""
    server = TextProtocolServer(MemcachedNode("fuzz", 4 * PAGE_SIZE), lambda: 1.0)

    async def drive() -> bytes:
        out = b""
        for chunk in chunks:
            responses = server.feed_stepwise(chunk)
            if not isinstance(responses, bytes):
                responses = await run_steps(responses)
            out += responses
        return out

    with mock.patch.object(server_module, "STEP_BUDGET_S", 0.0):
        return asyncio.run(drive()), server


def fed(chunks: list[bytes]) -> tuple[bytes, TextProtocolServer]:
    server = TextProtocolServer(MemcachedNode("fuzz", 4 * PAGE_SIZE), lambda: 1.0)
    return b"".join(server.feed(chunk) for chunk in chunks), server


def chunked(data: bytes, size: int) -> list[bytes]:
    return [data[i : i + size] for i in range(0, len(data), size)]


@given(
    import_records,
    import_records,
    st.sampled_from(["merge", "prepend", "fresh"]),
    st.lists(command_lines, max_size=8),
    st.integers(1, 64),
)
@settings(max_examples=100, deadline=None)
def test_server_driven_steps_reply_like_feed_at_any_chunking(
    first, second, mode, lines, chunk_size
):
    """The fuzz suite's import streams, two imports and random command
    lines (bare ``batch_import`` headers among them) behind them."""
    get_line = " ".join(["get", "x", *(key for key, _, _ in first)])
    stream = (
        import_wire(mode, first)
        + wire.encode_line(get_line)
        + import_wire("merge", second)
        + b"".join(line.encode("utf-8", "replace") + b"\r\n" for line in lines)
    )
    for chunks in (chunked(stream, chunk_size), [stream]):
        stepped, stepped_server = server_driven(chunks)
        plain, plain_server = fed(chunks)
        assert stepped == plain
        assert node_state(stepped_server.node) == node_state(plain_server.node)


def raw_import(
    rows: int,
    sizes: list[int],
    values: bytes = b"xy",
    keys: bytes = b"a b",
    trailer: bytes = b"\r\n",
) -> bytes:
    """A ``batch_import`` of a block packed by hand, any field of it
    free to disagree with the others."""
    count = len(sizes)
    block = (
        struct.pack(f"<{count}d{count}q{count}I", *range(count), *sizes, *[0] * count)
        + values
        + keys
    )
    return b"batch_import merge %d %d\r\n%b%b" % (rows, len(block), block, trailer)


BAD_BLOCK = wire.BAD_BLOCK


@pytest.mark.parametrize(
    ("stream", "error"),
    [
        pytest.param(
            import_wire(
                "merge", [("a", 1.0, b"x"), ("b", 2.0, b"y"), ("a", 3.0, b"z")]
            ),
            b"CLIENT_ERROR duplicate key in batch: a\r\n",
            id="duplicate-key",
        ),
        pytest.param(raw_import(2, [1, -1], b"x"), BAD_BLOCK, id="negative-size"),
        pytest.param(
            raw_import(2, [1, 1], trailer=b"XY"), wire.BAD_CHUNK, id="bad-data-chunk"
        ),
        pytest.param(raw_import(3, [1, 1]), BAD_BLOCK, id="more-rows-than-bytes"),
        pytest.param(raw_import(1, [1, 1]), BAD_BLOCK, id="fewer-rows-than-bytes"),
        pytest.param(raw_import(2, [1, 9]), BAD_BLOCK, id="sizes-past-the-payload"),
        pytest.param(raw_import(2, [1, 1], keys=b"a "), BAD_BLOCK, id="empty-key"),
        pytest.param(
            raw_import(2, [1, 1], keys=b"a " + b"k" * (wire.MAX_KEY_LENGTH + 1)),
            BAD_BLOCK,
            id="key-too-long",
        ),
        pytest.param(
            raw_import(2, [1, 1], keys=b"a \xff"), BAD_BLOCK, id="key-not-utf8"
        ),
        pytest.param(
            raw_import(2, [1, 1], keys=b"a b\r\nc"), BAD_BLOCK, id="key-with-whitespace"
        ),
        pytest.param(b"mig_export 4\r\na  b\r\n", BAD_BLOCK, id="export-empty-key"),
        pytest.param(
            wire.encode_request("mig_export", [], b"k" * (wire.MAX_KEY_LENGTH + 1)),
            BAD_BLOCK,
            id="export-key-too-long",
        ),
    ],
)
def test_a_rejected_batch_applies_no_record(stream, error):
    """One error line for the whole request, nothing applied, and the
    connection still in step: the next pipelined request is answered."""
    out, server = server_driven(chunked(stream + b"get a\r\n", 3))
    assert out == error + wire.END
    assert len(server.node) == 0
    assert server.node.stats.imported == 0


# ----------------------------------------------------------------------
# Edges of a stepped command
# ----------------------------------------------------------------------


def test_stop_mid_import_returns_promptly_and_keeps_applied_records_whole():
    grace = 0.1
    node = planted_node()
    records = cold_records()
    with EventLoopThread(name="stepped-client") as client_loop:
        with serving(node, drain_grace_s=grace) as (loop, server):
            client = NodeClient("n", *server.endpoint, timeout_s=30.0)
            pending = client_loop.submit(client.batch_import(records))
            wait_until(lambda: node.stats.imported > 0, "the import to start")
            started = time.monotonic()
            loop.call(server.stop(), timeout=30.0)
            stopped_after = time.monotonic() - started
            with pytest.raises(TransportError):
                pending.result(timeout=30.0)
            client_loop.call(client.close())
    assert stopped_after < grace + 1.0
    applied = [record for record in records if node.contains(record.key)]
    assert 0 < len(applied) < RECORDS
    assert len(applied) == node.stats.imported
    for record in applied:
        item = node.peek(record.key)
        assert item.value == record.value
        assert item.last_access == record.last_access
    check_lru(node, require_sorted_timestamps=True)


def test_a_stepped_import_is_one_execute_observation_of_its_own_time():
    telemetry = create_telemetry("stepped")
    node = MemcachedNode("n", 4 * PAGE_SIZE)
    server = TextProtocolServer(node, lambda: 1.0, telemetry=telemetry)
    records = [
        MigratedItem(f"k{i}", (0, b"v"), 1, float(i)) for i in range(20)
    ]
    steps = server.feed_stepwise(
        import_bytes(records, "prepend") + b"get k0\r\n"
    )
    assert not isinstance(steps, bytes)
    started = time.monotonic()
    with pytest.raises(StopIteration) as done:
        while True:
            next(steps)
            time.sleep(0.005)  # another connection's turn
    across_yields = time.monotonic() - started
    assert done.value.value.startswith(b"IMPORTED 20\r\nVALUE k0 ")
    execute = telemetry.metrics.histogram("net_server_execute_seconds", node="n")
    assert execute.count == 2  # the import and the get
    assert execute.sum < across_yields / 4


def test_live_execute_and_parse_histograms_under_a_stepped_import():
    telemetry = create_telemetry("stepped")
    node = planted_node(metrics=telemetry.metrics)
    with serving(node, telemetry=telemetry) as (_, server):
        run_interleaved_import(node, server.endpoint, gets=3)
    metrics = telemetry.metrics
    execute = metrics.histogram("net_server_execute_seconds", node="n")
    parse = metrics.histogram("net_server_parse_seconds", node="n")
    assert execute.count == 1 + 3  # the import and three gets
    assert parse.count > 0
    assert parse.sum >= 0.0

"""The shared wire codec: table self-check, node-vs-proxy parity, and
the three defects the hand-written parsers had drifted into.

The command table in :mod:`repro.wire` is the only statement of the
dialect; these tests check that every speaker is wired to all of it
(nothing in the table without a handler, no handler outside the table)
and that a :class:`~repro.net.server.NodeServer` and a
:class:`~repro.proxy.server.ProxyServer` answer the same edge requests
with the same bytes over real sockets.
"""

import asyncio
import random
import re
import socket
import struct
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import wire
from repro.errors import WireProtocolError
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.node import MemcachedNode, MigratedItem
from repro.memcached.protocol import TextProtocolServer
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.server import LiveClusterHarness
from repro.net.runtime import EventLoopThread
from repro.proxy.router import ProxyConfig
from repro.proxy.server import ProxyHarness
from repro.proxy.router import ProxyRouter
from repro.proxy.server import ProxyServer
from repro.wire import COMMANDS, MAX_KEY_LENGTH, MAX_LINE, RequestFramer

MEMORY = 8 * PAGE_SIZE
DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"

# ----------------------------------------------------------------------
# Table self-check
# ----------------------------------------------------------------------

ANSWERED = {verb for verb, command in COMMANDS.items() if command.reply != wire.NONE}
PROXIED = {verb for verb, command in COMMANDS.items() if command.proxied}
# The ProxyRouter entry point behind each routed verb.
ROUTER_ENTRY = {"get": "get_many", "gets": "get_many", "decr": "incr"}


def handlers(cls) -> set[str]:
    return {name[5:] for name in dir(cls) if name.startswith("_cmd_")}


def test_node_handles_exactly_the_answered_verbs():
    assert handlers(TextProtocolServer) == ANSWERED


def test_proxy_serves_only_table_verbs_and_every_proxied_one():
    served = handlers(ProxyServer)
    assert PROXIED <= served <= ANSWERED
    for verb in PROXIED:
        assert callable(getattr(ProxyRouter, ROUTER_ENTRY.get(verb, verb)))


def test_every_reply_framing_has_exactly_one_reader():
    framings = {
        framing
        for command in COMMANDS.values()
        for framing in (command.reply, *command.reply_by_arg.values())
    } - {wire.NONE}
    assert set(wire.REPLY_PARSERS) == framings | {wire.SNIFFED}
    assert set(wire.BLOCKS) == framings - {wire.LINE}
    parsers = list(wire.REPLY_PARSERS.values())
    assert len(set(parsers)) == len(parsers)


def test_body_argument_lies_inside_the_arity_window():
    for verb, command in COMMANDS.items():
        if command.body:
            assert command.body_at < command.min_args, verb
        assert command.min_args <= command.max_args


def test_max_line_covers_the_longest_line_the_client_emits():
    keys = ["k" * MAX_KEY_LENGTH] * wire.GET_BATCH_KEYS
    for verb in ("get", "gets"):
        line = wire.encode_request(verb, keys)
        assert len(line) - len(wire.CRLF) <= MAX_LINE
    assert len(wire.encode_request("gets", keys)) - len(wire.CRLF) == MAX_LINE
    # Migration rows travel inside one sized payload, never as lines: a
    # full batch of the widest rows is one short command line and its body.
    records = [
        MigratedItem("k" * MAX_KEY_LENGTH, (2**32 - 1, b""), 0, 1e300 / 3)
    ] * wire.IMPORT_BATCH_RECORDS
    export_keys = " ".join(["k" * MAX_KEY_LENGTH] * wire.EXPORT_BATCH_KEYS)
    for verb, args, body in [
        ("batch_import", ["merge", f"{len(records)}"], wire.items_payload(records)),
        ("mig_export", [], export_keys.encode()),
    ]:
        line, rest = wire.encode_request(verb, args, body).split(wire.CRLF, 1)
        assert len(line) <= MAX_LINE
        assert rest == body + wire.CRLF


SAMPLE_RECORDS = [
    MigratedItem("a", (3, b"xy"), 2, 1.5),
    MigratedItem("b", (0, b""), 0, 2.5),
]


def sample_request(verb: str) -> tuple[list[str], bytes | None]:
    """Arguments (payload size excluded) and body of a well-formed call."""
    if verb == "batch_import":
        return ["merge", "2"], wire.items_payload(SAMPLE_RECORDS)
    if verb == "mig_export":
        return [], b"a b"
    command = COMMANDS[verb]
    count = command.min_args - (1 if command.body else 0)
    return ["7"] * count, b"pay\r\nload" if command.body else None


def test_every_request_body_is_one_sized_payload():
    assert {command.body for command in COMMANDS.values()} == {"", wire.PAYLOAD}


@pytest.mark.parametrize("verb", sorted(ANSWERED))
@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_client_encoder_and_server_framer_agree(verb, chunk):
    args, body = sample_request(verb)
    data = wire.encode_request(verb, args, body or b"")
    framer = RequestFramer()
    requests = []
    for start in range(0, len(data), chunk):
        requests += framer.feed(data[start : start + chunk])
    assert len(requests) == 1
    got_verb, got_args, got_body, ctx = requests[0]
    assert (got_verb, got_body, ctx) == (verb, body, None)
    if COMMANDS[verb].body:
        assert int(got_args.pop(COMMANDS[verb].body_at)) == len(body)
    assert got_args == args


def test_client_cannot_emit_outside_the_table():
    with pytest.raises(KeyError):
        wire.encode_request("frobnicate", [])
    with pytest.raises(WireProtocolError):
        wire.encode_request("delete", ["a", "b"])
    with pytest.raises(WireProtocolError):
        wire.encode_request("get", [])


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_framer_closes_on_quit_and_on_an_overlong_line(chunk):
    def framed(data: bytes) -> tuple[list, bool]:
        framer = RequestFramer()
        requests = []
        for start in range(0, len(data), chunk):
            requests += framer.feed(data[start : start + chunk])
        return requests, framer.closed

    fits = b"get " + b"k" * (MAX_LINE - 4) + b"\r\n"
    requests, closed = framed(fits + b"get b\r\n")
    assert [request[0] for request in requests] == ["get", "get"]
    assert not closed
    # Whatever follows `quit` or an over-long line is never framed.
    assert framed(b"get a\r\nquit\r\nget b\r\n") == (
        [("get", ["a"], None, None)],
        True,
    )
    assert framed(b"get a\r\nget k" + fits + b"get b\r\n") == (
        [("get", ["a"], None, None), (None, [], wire.LINE_TOO_LONG, None)],
        True,
    )


def design_row(verb: str) -> str:
    command = COMMANDS[verb]
    if command.max_args == wire.ANY:
        args = f"{command.min_args}+"
    elif command.max_args == command.min_args:
        args = str(command.min_args)
    else:
        args = f"{command.min_args}–{command.max_args}"
    body = f"{command.body} (arg {command.body_at})" if command.body else "—"
    reply = command.reply + "".join(
        f"; `{verb} {arg}`: {framing}"
        for arg, framing in command.reply_by_arg.items()
    )
    proxied = "yes" if command.proxied else "no"
    return f"| `{verb}` | {args} | {body} | {reply} | {proxied} |"


def test_design_doc_prints_the_command_table():
    text = DESIGN.read_text()
    section = text[text.index("## Wire codec") :]
    rows = re.findall(r"^\| `\w+` \|.*\|$", section, flags=re.M)
    assert rows[: len(COMMANDS)] == [design_row(verb) for verb in COMMANDS]


# ----------------------------------------------------------------------
# Node-vs-proxy parity over real sockets
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def listeners():
    """``{"node": endpoint, "proxy": endpoint}`` of two fresh tiers."""
    with LiveClusterHarness(["solo"], MEMORY, drain_grace_s=0.2) as node:
        with ProxyHarness(["n0", "n1"], MEMORY, drain_grace_s=0.2) as proxy:
            yield {
                "node": node.endpoints["solo"],
                "proxy": proxy.proxy_endpoint,
            }


def converse(endpoint: tuple[str, int], data: bytes, chunk: int) -> bytes:
    """Send ``data`` in ``chunk``-byte writes, half-close, read to EOF."""
    with socket.create_connection(endpoint, timeout=10.0) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for start in range(0, len(data), chunk):
            sock.sendall(data[start : start + chunk])
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while piece := sock.recv(65536):
            reply += piece
        return reply


LONG_KEY = b"k" * (MAX_KEY_LENGTH + 1)

# (id, request bytes with {k} standing for a key unique to the run,
#  expected reply -- {k} alike -- or None when only parity is asserted)
EDGE_REQUESTS = [
    ("get-no-key", b"get\r\n", b"ERROR\r\n"),
    ("gets-no-key", b"gets\r\n", b"ERROR\r\n"),
    ("set-too-few", b"set {k} 0 0\r\n", wire.BAD_FORMAT),
    ("set-too-many", b"set {k} 0 0 1 noreply extra\r\n", wire.BAD_FORMAT),
    ("delete-no-key", b"delete\r\n", wire.BAD_FORMAT),
    ("delete-two-keys", b"delete {k} other\r\n", wire.BAD_FORMAT),
    ("incr-no-delta", b"incr {k}\r\n", wire.BAD_FORMAT),
    ("incr-extra", b"incr {k} 1 2\r\n", wire.BAD_FORMAT),
    ("decr-no-delta", b"decr {k}\r\n", wire.BAD_FORMAT),
    ("decr-extra", b"decr {k} 1 2\r\n", wire.BAD_FORMAT),
    ("incr-bad-delta", b"incr {k} abc\r\n", wire.BAD_DELTA),
    ("decr-bad-delta", b"decr {k} 1.5\r\n", wire.BAD_DELTA),
    ("set-negative-size", b"set {k} 0 0 -1\r\n", wire.BAD_CHUNK),
    ("set-bad-size", b"set {k} 0 0 abc\r\n", wire.BAD_FORMAT),
    ("set-bad-flags", b"set {k} x 0 1\r\nv\r\nget {k}\r\n", None),
    ("set-bad-exptime", b"set {k} 0 y 1\r\nv\r\nget {k}\r\n", None),
    (
        "set-negative-flags",
        b"set {k} -1 0 1\r\nv\r\nget {k}\r\n",
        wire.BAD_FORMAT + wire.END,
    ),
    (
        "set-flags-2-to-the-32",
        b"set {k} 4294967296 0 1\r\nv\r\nget {k}\r\n",
        wire.BAD_FORMAT + wire.END,
    ),
    (
        "set-flags-2-to-the-32-minus-1",
        b"set {k} 4294967295 0 1\r\nv\r\nget {k}\r\n",
        b"STORED\r\nVALUE {k} 4294967295 1\r\nv\r\nEND\r\n",
    ),
    ("set-bad-trailer", b"set {k} 0 0 1\r\nvXYget {k}\r\n", None),
    ("set-noreply-answered", b"set {k} 0 0 1 noreply\r\nv\r\n", b"STORED\r\n"),
    (
        "set-long-key",
        b"set " + LONG_KEY + b" 0 0 1\r\nv\r\n",
        wire.KEY_TOO_LONG + wire.ERROR,
    ),
    ("get-long-key", b"get " + LONG_KEY + b"\r\n", wire.END),
    ("trace-no-ids", b"trace\r\nget {k}\r\n", wire.BAD_TRACE + wire.END),
    ("trace-one-id", b"trace abc\r\n", wire.BAD_TRACE),
    ("trace-uppercase", b"trace DEADBEEF ab\r\n", wire.BAD_TRACE),
    ("trace-three-ids", b"trace aa bb cc\r\n", wire.BAD_TRACE),
    ("trace-doubled", b"trace aa 01\r\ntrace bb 02\r\nget {k}\r\n", wire.END),
    ("trace-then-empty", b"trace aa 01\r\n\r\nget {k}\r\n", None),
    ("empty-line", b"\r\n", wire.ERROR),
    ("unknown-verb", b"frobnicate 1 2\r\n", wire.ERROR),
    ("uppercase-verb", b"GET {k}\r\n", wire.END),
    (
        "roundtrip",
        b"set {k} 5 0 2\r\nhi\r\nget {k} ghost\r\ndelete {k}\r\nget {k}\r\n",
        None,
    ),
    (
        "arith",
        b"set {k} 0 0 2\r\n41\r\nincr {k} 1\r\ndecr {k} 50\r\nincr ghost 1\r\n",
        b"STORED\r\n42\r\n0\r\nNOT_FOUND\r\n",
    ),
    ("incr-non-numeric-value", b"set {k} 0 0 3\r\nabc\r\nincr {k} 1\r\n", None),
    ("quit-hangs-up", b"get {k}\r\nquit\r\n", wire.END),
]


@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
@pytest.mark.parametrize(
    ("request_bytes", "expected"),
    [pytest.param(*case[1:], id=case[0]) for case in EDGE_REQUESTS],
)
def test_node_and_proxy_answer_edge_requests_identically(
    listeners, request, request_bytes, expected, chunk
):
    key = re.sub(r"\W+", "_", request.node.name).encode()
    data = request_bytes.replace(b"{k}", key)
    node_reply = converse(listeners["node"], data, chunk)
    assert converse(listeners["proxy"], data, chunk) == node_reply
    assert node_reply.endswith(wire.CRLF)
    if expected is not None:
        assert node_reply == expected.replace(b"{k}", key)


@pytest.mark.parametrize("verb", ["get", "gets"])
def test_node_and_proxy_answer_a_64_key_multiget_identically(listeners, verb):
    """The widest ``get`` line -- hits, misses and a repeated key, spread
    over both proxy backends -- comes back through the batched read path
    byte for byte as a node answers it (cas ids aside: the proxy's are 0)."""
    keys = [f"wide-{verb}-{i:02d}" for i in range(wire.GET_BATCH_KEYS)]
    keys[40] = keys[3]
    owners = ConsistentHashRing(["n0", "n1"]).nodes_for_keys(keys)
    assert min(len(owners.get(name, ())) for name in ("n0", "n1")) >= 8
    data = b"".join(
        wire.encode_request("set", [key, str(i), "0"], key.encode() * 3)
        for i, key in enumerate(keys)
        if i % 3 == 0
    ) + wire.encode_request(verb, keys)
    node_reply, proxy_reply = (
        re.sub(rb"(?m)^(VALUE \S+ \d+ \d+) \d+\r$", rb"\1 0\r", reply)
        for reply in (
            converse(listeners["node"], data, 1 << 20),
            converse(listeners["proxy"], data, 1 << 20),
        )
    )
    assert proxy_reply == node_reply
    assert node_reply.count(b"VALUE ") == 23  # 22 stored + the repeat
    assert node_reply.endswith(wire.END)


# ----------------------------------------------------------------------
# Regressions: the three defects of the hand-written parsers
# ----------------------------------------------------------------------


@pytest.fixture
def loop():
    with EventLoopThread(name="test-wire-client") as thread:
        yield thread


def test_execute_sniffs_every_reply_framing(loop):
    """``gets`` replies end in a cas id, not a size (was: the cas id was
    read as the payload size)."""
    with LiveClusterHarness(["n0"], MEMORY, drain_grace_s=0.2) as harness:
        client = NodeClient("n0", *harness.endpoints["n0"], pool_size=1)

        def execute(command: str, payload: bytes | None = None) -> bytes:
            return loop.call(client.execute(command, payload))

        assert execute("set k 7 0 5", b"hello") == b"STORED\r\n"
        assert execute("get k ghost") == b"VALUE k 7 5\r\nhello\r\nEND\r\n"
        assert re.fullmatch(
            rb"VALUE k 7 5 \d+\r\nhello\r\nEND\r\n", execute("gets k")
        )
        assert re.fullmatch(
            rb"ITEMS 1 26\r\n.{8}\x05\x00{7}\x07\x00{3}hellok\r\nEND\r\n",
            execute("mig_export 1", b"k"),
            re.S,
        )
        dump = execute("ts_dump 0")
        assert re.fullmatch(rb"TS 1 17\r\n.{8}\x05\x00{7}k\r\nEND\r\n", dump, re.S)
        stats = execute("stats")
        assert stats.startswith(b"STAT curr_items 1\r\n")
        assert stats.endswith(wire.END)
        assert execute("frobnicate") == wire.ERROR
        # The one pooled connection is still in step after every framing.
        assert loop.call(client.version()).startswith("VERSION")
        loop.call(client.close())


@pytest.mark.parametrize("listener", ["node", "proxy"])
def test_one_line_bound_on_both_listeners(listeners, listener):
    endpoint = listeners[listener]
    under = b"get " + b"k" * (MAX_LINE - 1 - 4) + b"\r\n"
    assert converse(endpoint, under + b"get after\r\n", 1 << 20) == (
        wire.END + wire.END
    )
    over = b"get " + b"k" * (MAX_LINE + 1 - 4) + b"\r\n"
    with socket.create_connection(endpoint, timeout=10.0) as sock:
        sock.sendall(over + b"get after\r\n")
        reply = b""
        while piece := sock.recv(65536):  # the listener hangs up, not us
            reply += piece
    assert reply == wire.LINE_TOO_LONG
    # A peer that never sends CRLF is cut off instead of buffered.
    with socket.create_connection(endpoint, timeout=10.0) as sock:
        sock.sendall(b"x" * (MAX_LINE + 2))
        reply = b""
        while piece := sock.recv(65536):
            reply += piece
    assert reply == wire.LINE_TOO_LONG


def test_widest_client_multiget_passes_through_the_proxy(loop):
    """64 keys of 200 bytes: a node served it, the proxy refused it."""
    keys = [f"{i:03d}".ljust(200, "w") for i in range(wire.GET_BATCH_KEYS)]
    with ProxyHarness(["n0", "n1"], MEMORY, drain_grace_s=0.2) as harness:
        client = NodeClient("proxy", *harness.proxy_endpoint)
        assert loop.call(client.set(keys[5], b"v"))
        values = loop.call(client.get_many(keys))
        assert values[5] == (0, b"v")
        assert values.count(None) == len(keys) - 1
        loop.call(client.close())


def test_proxy_relays_deterministic_rejections_and_keeps_serving(loop):
    """Was: the backend's WireProtocolError escaped the handler and the
    client saw a TransportError after its retries."""
    huge = b"x" * (2 * PAGE_SIZE)
    with ProxyHarness(["n0", "n1"], MEMORY, drain_grace_s=0.2) as harness:
        endpoint = harness.proxy_endpoint
        data = (
            b"set " + LONG_KEY + b" 0 0 1\r\nget small\r\n"
            + wire.encode_request("set", ["big", "0", "0"], huge)
            + b"get big\r\n"
        )
        assert converse(endpoint, data, 1 << 20) == (
            wire.KEY_TOO_LONG
            + wire.END
            + b"SERVER_ERROR object too large for cache\r\n"
            + wire.END
        )
        client = NodeClient("proxy", *endpoint)
        with pytest.raises(WireProtocolError, match="key too long"):
            loop.call(client.set(LONG_KEY.decode(), b"v"))
        with pytest.raises(WireProtocolError, match="object too large"):
            loop.call(client.set("big", huge))
        assert loop.call(client.set("big", b"small")) is True
        loop.call(client.close())


def test_rejected_probe_releases_the_half_open_breaker(loop):
    config = ProxyConfig(
        failure_threshold=1, open_duration_s=0.001, close_after=1
    )
    huge = b"x" * (2 * PAGE_SIZE)
    with ProxyHarness(["n0"], MEMORY, config=config, drain_grace_s=0.2) as harness:
        client = NodeClient("proxy", *harness.proxy_endpoint)
        harness.router.breakers["n0"].record_failure()
        time.sleep(0.01)
        assert harness.router.breakers["n0"].state == "half_open"
        with pytest.raises(WireProtocolError, match="object too large"):
            loop.call(client.set("big", huge))
        assert harness.router.breakers["n0"].state == "closed"
        assert loop.call(client.set("big", b"small")) is True
        loop.call(client.close())


# ----------------------------------------------------------------------
# Reply codec: differential fuzz against the stream readers it replaced
# ----------------------------------------------------------------------
#
# Reference implementation: the asyncio-stream readers NodeClient used
# before the reply half of the codec became sans-IO, verbatim but for
# taking the StreamReader directly -- except the one packed-block
# reader, written by hand when `ts_dump` and `mig_export` replies became
# packed blocks.  They let a non-numeric size or a non-UTF-8 key
# (ValueError) or a short sniffed header (IndexError) escape as such;
# the parsers report them as WireProtocolError, so `reference` below
# counts the three alike.


async def _ref_line(reader: asyncio.StreamReader) -> bytes:
    return (await reader.readuntil(wire.CRLF))[:-2]


async def _ref_payload(reader: asyncio.StreamReader, size: int) -> bytes:
    data = await reader.readexactly(size + 2)
    if data[-2:] != wire.CRLF:
        raise WireProtocolError("missing CRLF after payload")
    return data[:-2]


def _ref_raise_on_error(line: bytes) -> bytes:
    if line.startswith(wire.ERROR_PREFIXES):
        raise WireProtocolError(line.decode("utf-8", "replace"))
    return line


async def _read_simple(reader):
    return _ref_raise_on_error(await _ref_line(reader))


async def _read_values(reader):
    token, width, size_at = wire.BLOCKS[wire.VALUES]
    values = {}
    while True:
        line = _ref_raise_on_error(await _ref_line(reader))
        if line == b"END":
            return values
        parts = line.split()
        if len(parts) < width or parts[0] != token:
            raise WireProtocolError(f"unexpected line in value block: {line!r}")
        key = parts[1].decode("utf-8")
        flags, size = int(parts[2]), int(parts[size_at])
        values[key] = (flags, await _ref_payload(reader, size))


async def _read_block(reader, framing: str):
    """A packed ``TS``/``ITEMS`` block, read by hand: float64 stamps,
    int64 sizes, then -- with values -- uint32 flags and the values, then
    the space-joined keys.  Written after the blocks replaced per-row
    text lines; a non-UTF-8 key escapes as ``UnicodeDecodeError``."""
    values = framing == wire.ITEMS
    line = _ref_raise_on_error(await _ref_line(reader))
    parts = line.split()
    if len(parts) != 3 or parts[0] != wire.BLOCKS[framing].token:
        raise WireProtocolError(f"unexpected {framing} header: {line!r}")
    rows = int(parts[1])
    payload = await _ref_payload(reader, int(parts[2]))
    if await _ref_line(reader) != b"END":
        raise WireProtocolError(f"{framing} block without END")
    fixed = (20 if values else 16) * rows
    if rows < 0 or len(payload) < fixed:
        raise WireProtocolError(f"{len(payload)} bytes for {rows} rows")
    sizes = [struct.unpack_from("<q", payload, 8 * (rows + i))[0] for i in range(rows)]
    if any(size < 0 for size in sizes):
        raise WireProtocolError("negative size")
    at = fixed + (sum(sizes) if values else 0)
    text = payload[at:].decode("utf-8")
    keys = text.split(" ") if text else []
    if len(keys) != rows or any(
        not 0 < len(key) <= MAX_KEY_LENGTH or len(key.split()) != 1 for key in keys
    ):
        raise WireProtocolError(f"{len(payload)} bytes for {rows} rows")
    decoded, at = [], fixed
    for i, (key, size) in enumerate(zip(keys, sizes)):
        stamp = struct.unpack_from("<d", payload, 8 * i)[0]
        if not values:
            decoded.append((key, stamp, size))
            continue
        flags = struct.unpack_from("<I", payload, 16 * rows + 4 * i)[0]
        decoded.append(MigratedItem(key, (flags, payload[at : at + size]), size, stamp))
        at += size
    return decoded


async def _read_ts(reader):
    return await _read_block(reader, wire.TS)


async def _read_items(reader):
    return await _read_block(reader, wire.ITEMS)


async def _read_stats(reader):
    token, width, _ = wire.BLOCKS[wire.STATS]
    stats = {}
    while True:
        line = _ref_raise_on_error(await _ref_line(reader))
        if line == b"END":
            return stats
        parts = line.split(None, width - 1)
        if len(parts) != width or parts[0] != token:
            raise WireProtocolError(f"unexpected stats line: {line!r}")
        stats[parts[1].decode("utf-8")] = parts[2].decode("utf-8")


_REF_SIZE_AT = {block.token: block.size_at for block in wire.BLOCKS.values()}


async def _read_sniffed(reader):
    line = await _ref_line(reader)
    chunks = [line + wire.CRLF]
    if line.split(b" ", 1)[0] not in _REF_SIZE_AT:
        return chunks[0]
    while line != b"END":
        size_at = _REF_SIZE_AT.get(line.split(b" ", 1)[0])
        if size_at is not None:
            size = int(line.split()[size_at])
            chunks.append(await _ref_payload(reader, size) + wire.CRLF)
        line = await _ref_line(reader)
        chunks.append(line + wire.CRLF)
    return b"".join(chunks)


REFERENCE_READERS = {
    wire.LINE: _read_simple,
    wire.VALUES: _read_values,
    wire.TS: _read_ts,
    wire.ITEMS: _read_items,
    wire.STATS: _read_stats,
    wire.SNIFFED: _read_sniffed,
}

# How a pipeline ended: every reply decoded, one rejected or malformed
# (nothing after it is read), or the stream ran out first.
COMPLETE, REJECTED, TRUNCATED = "complete", "rejected", "truncated"


async def reference(stream: bytes, framings: list[str]) -> tuple[list, str, bytes]:
    """``(replies decoded, how it ended, bytes left behind the last)``."""
    reader = asyncio.StreamReader()
    reader.feed_data(stream)
    reader.feed_eof()
    results: list = []
    try:
        for framing in framings:
            results.append(await REFERENCE_READERS[framing](reader))
    except (WireProtocolError, ValueError, IndexError):
        return results, REJECTED, b""
    except asyncio.IncompleteReadError:
        return results, TRUNCATED, b""
    return results, COMPLETE, await reader.read()


def framed(
    stream: bytes, framings: list[str], cuts: list[int]
) -> tuple[list, str, bytes]:
    """The same pipeline through :class:`wire.ReplyFramer`, the stream
    split at ``cuts``."""
    framer = wire.ReplyFramer()
    framer.expect(framings)
    try:
        for start, stop in zip([0, *cuts], [*cuts, len(stream)]):
            if framer.feed(stream[start:stop]) is not None:
                return framer.results, COMPLETE, framer.unread + stream[stop:]
    except WireProtocolError:
        return framer.results, REJECTED, b""
    return framer.results, TRUNCATED, b""


PAYLOADS = [b"", b"v", b"\r\n", b"\r\nEND\r\n", b"END", b"VALUE k 0 1\r\nx", b"\x00\xff" * 9]
LINES = [
    b"STORED", b"NOT_STORED", b"DELETED", b"NOT_FOUND", b"OK", b"TOUCHED",
    b"42", b"IMPORTED 1024", b"VERSION 1.6-elmem", b"EXISTS",
    b"ERROR", b"CLIENT_ERROR bad data chunk", b"SERVER_ERROR out of memory",
]


def random_reply(rng: random.Random) -> tuple[str, bytes]:
    """One well-formed reply built by ``wire``'s own encoders."""

    def payload() -> bytes:
        if rng.random() < 0.5:
            return rng.choice(PAYLOADS)
        return rng.randbytes(rng.choice([1, 5, 64, 300]))

    def key() -> str:
        return rng.choice(["k", "key:é", "k" * MAX_KEY_LENGTH, f"k{rng.randrange(99)}"])

    def stamp() -> float:
        return rng.choice([0.0, 1.5, 1e-9, rng.random() * 1e6])

    rows = rng.choice([0, 1, 1, 2, 5])
    kind = rng.choice([wire.LINE, wire.LINE, wire.VALUES, wire.VALUES,
                       wire.TS, wire.ITEMS, wire.STATS, "obs"])
    if kind == wire.LINE:
        # Error lines are rare enough that deep pipelines get past them.
        line = rng.choice(LINES if rng.random() < 0.3 else LINES[:-3])
        return kind, line + wire.CRLF
    if kind == "obs":
        page = "# HELP a b\na 1\n" * rng.randrange(3)
        return wire.VALUES, wire.obs_reply(page)
    if kind == wire.VALUES:
        cas = rng.choice([None, 0, 7, 2**63])
        return kind, b"".join(
            wire.value_block(key(), rng.choice([0, 7, 2**32]), payload(), cas)
            for _ in range(rows)
        ) + wire.END
    if kind == wire.TS:
        dumped = [(key(), stamp(), rng.randrange(2000)) for _ in range(rows)]
        return kind, wire.ts_reply(*([row[i] for row in dumped] for i in range(3)))
    if kind == wire.ITEMS:
        return kind, wire.items_reply([
            MigratedItem(key(), (rng.choice([0, 7, 2**32 - 1]), payload()), 0, stamp())
            for _ in range(rows)
        ])
    return kind, wire.stats_reply(
        (rng.choice(["curr_items", "a:b", "pid"]), rng.choice([0, 1.5, "x y z"]))
        for _ in range(rows)
    )


def corrupt(rng: random.Random, reply: bytes) -> bytes:
    """Break one header or trailer of a block reply (or leave a reply
    alone that has nothing of the kind to break)."""
    lines = reply.split(wire.CRLF)
    headers = [
        i for i, line in enumerate(lines)
        if line.split(b" ", 1)[0] in (b"VALUE", b"TS", b"ITEMS", b"STAT")
    ]
    if not headers:
        return reply
    at = rng.choice(headers)
    parts = lines[at].split()
    how = rng.choice(["token", "short", "size", "negative", "trailer"])
    if how == "token":
        parts[0] = rng.choice(
            [b"VALUF", b"TS", b"ITEM", b"ITEMS", b"VALUE", b"STAT", b"value"]
        )
    elif how == "short":
        parts.pop()
    elif how == "size":
        parts[-1] = rng.choice([b"abc", b"1.5", b"0x10", b""])
    elif how == "negative":
        parts[-1] = rng.choice([b"-1", b"-2", b"-3", b"-300"])
    else:
        at = reply.index(lines[at]) + len(lines[at]) + 2
        end = reply.find(wire.CRLF, at)
        return reply[:end] + b"XY" + reply[end + 2 :]
    lines[at] = b" ".join(parts)
    return wire.CRLF.join(lines)


def random_pipeline(rng: random.Random) -> tuple[bytes, list[str]]:
    depth = 64 if rng.random() < 0.02 else min(64, 1 + int(rng.expovariate(0.2)))
    framings, replies = [], []
    for _ in range(depth):
        framing, reply = random_reply(rng)
        if rng.random() < 0.03:
            reply = corrupt(rng, reply)
        # `execute` sniffs the framing off the first token instead.
        framings.append(wire.SNIFFED if rng.random() < 0.2 else framing)
        replies.append(reply)
    stream = b"".join(replies)
    if rng.random() < 0.05:
        stream = stream[: rng.randrange(len(stream) + 1)]
    return stream, framings


@pytest.mark.parametrize(
    "streams", [300, pytest.param(3000, marks=pytest.mark.slow)]
)
def test_reply_parsers_agree_with_the_stream_readers_they_replaced(streams):
    """Seeded pipelines of 1-64 mixed replies, some corrupted or cut
    short: fed whole, 1 and 7 bytes at a time and at random splits, the
    framer decodes what the stream readers decoded -- or stops at the
    same reply, for the same kind of reason."""
    rng = random.Random(streams)
    pipelines = [random_pipeline(rng) for _ in range(streams)]

    async def references():
        return [await reference(*pipeline) for pipeline in pipelines]

    endings = Counter()
    for (stream, framings), expected in zip(pipelines, asyncio.run(references())):
        endings[expected[1]] += 1
        size = len(stream)
        splits = sorted(rng.sample(range(size + 1), min(size, rng.randrange(1, 9))))
        for cuts in ([], list(range(1, size)), list(range(7, size, 7)), splits):
            assert framed(stream, framings, cuts) == expected, (stream, framings, cuts)
    # The corpus exercises every ending, not only the happy one.
    assert min(endings[COMPLETE], endings[REJECTED], endings[TRUNCATED]) >= streams // 50


def test_framer_reports_what_follows_the_last_reply():
    framer = wire.ReplyFramer()
    framer.expect([wire.LINE, wire.VALUES])
    assert framer.feed(b"STORED\r\nEN") is None
    assert framer.feed(b"D\r\nSTORED\r\n") == [b"STORED", {}]
    assert framer.unread == b"STORED\r\n"


def test_framer_bounds_a_line_that_never_ends():
    framer = wire.ReplyFramer()
    framer.expect([wire.LINE])
    assert framer.feed(b"x" * MAX_LINE) is None
    with pytest.raises(WireProtocolError, match="too long"):
        framer.feed(b"xx")


class CountedBytes(bytes):
    """``bytes`` that add up what the framer scans (``find``) and copies
    (slices and concatenations), in :attr:`work`."""

    work = 0

    def find(self, sub, start=0):
        at = super().find(sub, start)
        CountedBytes.work += (len(self) if at < 0 else at + len(sub)) - start
        return at

    def __getitem__(self, index):
        piece = super().__getitem__(index)
        if isinstance(index, slice):
            CountedBytes.work += len(piece)
            return CountedBytes(piece)
        return piece

    def __add__(self, other):
        CountedBytes.work += len(self) + len(other)
        return CountedBytes(super().__add__(other))


def test_a_long_reply_in_small_chunks_is_scanned_once():
    """A 10 000-row ``ts_dump`` block, 64 bytes at a time: the framer
    keeps its place between feeds and joins the payload's pieces once,
    so its work grows with the reply, not with reply x chunks
    (re-scanning or re-copying from the top would cost ~2 000x)."""
    rows = [(f"key-{i:05d}", i / 8, i % 997) for i in range(10_000)]
    reply = wire.ts_reply(*([row[i] for row in rows] for i in range(3)))
    framer = wire.ReplyFramer()
    framer.expect([wire.TS])
    CountedBytes.work = 0
    results = None
    for start in range(0, len(reply), 64):
        assert results is None
        results = framer.feed(CountedBytes(reply[start : start + 64]))
    assert results == [rows]
    assert len(reply) < CountedBytes.work < 6 * len(reply)


def test_a_long_request_in_small_chunks_is_scanned_once():
    """A 1 MiB ``batch_import``, 64 bytes at a time: the request framer
    keeps the chunks of the payload it awaits and joins them once (adding
    each chunk to the ones before would cost ~8 000x its length)."""
    records = [
        MigratedItem(f"key-{i:04d}", (i, bytes([i % 251]) * 1024), 1024, float(i))
        for i in range(1024)
    ]
    body = wire.items_payload(records)
    request = wire.encode_request("batch_import", ["merge", "1024"], body)
    request += b"version\r\n"
    assert len(request) >= 1 << 20
    framer = RequestFramer()
    CountedBytes.work = 0
    requests = []
    for start in range(0, len(request), 64):
        requests += framer.feed(CountedBytes(request[start : start + 64]))
    assert requests == [
        ("batch_import", ["merge", "1024", f"{len(body)}"], body, None),
        ("version", [], None, None),
    ]
    assert len(request) < CountedBytes.work < 6 * len(request)


def _packed(rows: int, payload: bytes, token: bytes = b"TS") -> bytes:
    return b"%b %d %d\r\n%b\r\nEND\r\n" % (token, rows, len(payload), payload)


def _items(rows: int, payload: bytes) -> bytes:
    return _packed(rows, payload, b"ITEMS")


TWO_ROWS = struct.pack("<2d2q", 1.5, 2.5, 3, 4)
# Two key-value rows holding b"xyz" and b"w" (flags 7 and 0).
TWO_ITEMS = struct.pack("<2d2q2I", 1.5, 2.5, 3, 1, 7, 0) + b"xyzw"
LONG_KEY_TEXT = b"k" * (MAX_KEY_LENGTH + 1)


@pytest.mark.parametrize(
    ("framing", "reply"),
    [
        pytest.param(wire.TS, _packed(3, TWO_ROWS + b"a b"), id="more-rows-than-bytes"),
        pytest.param(wire.TS, _packed(1, TWO_ROWS + b"a b"), id="fewer-rows-than-keys"),
        pytest.param(wire.TS, _packed(0, TWO_ROWS + b"a b"), id="zero-rows-with-bytes"),
        pytest.param(wire.TS, _packed(-1, b""), id="negative-rows"),
        pytest.param(wire.TS, _packed(2, TWO_ROWS + b"a "), id="empty-key"),
        pytest.param(wire.TS, _packed(2, TWO_ROWS + b"a \xff"), id="key-not-utf8"),
        pytest.param(
            wire.TS,
            wire.ts_reply(["a"], [1.5], [3])[: -len(wire.END)] + b"STORED\r\n",
            id="missing-end",
        ),
        pytest.param(
            wire.TS, b"TS 1\r\n" + TWO_ROWS[:16] + b"a\r\nEND\r\n", id="short-header"
        ),
        pytest.param(
            wire.TS,
            _packed(2, struct.pack("<2d2q", 1.5, 2.5, 3, -4) + b"a b"),
            id="negative-size",
        ),
        pytest.param(wire.TS, _packed(2, TWO_ROWS + b"a " + LONG_KEY_TEXT), id="key-too-long"),
        pytest.param(wire.TS, _packed(2, TWO_ROWS + b"a b\tc"), id="key-with-whitespace"),
        pytest.param(wire.ITEMS, _items(3, TWO_ITEMS + b"a b"), id="items-more-rows-than-bytes"),
        pytest.param(wire.ITEMS, _items(1, TWO_ITEMS + b"a b"), id="items-fewer-rows"),
        pytest.param(wire.ITEMS, _items(0, TWO_ITEMS + b"a b"), id="items-zero-rows-with-bytes"),
        pytest.param(wire.ITEMS, _items(2, TWO_ITEMS[:-1] + b"a b"), id="items-sizes-past-bytes"),
        pytest.param(
            wire.ITEMS,
            _items(2, struct.pack("<2d2q2I", 1.5, 2.5, 3, -1, 7, 0) + b"xyza b"),
            id="items-negative-size",
        ),
        pytest.param(wire.ITEMS, _items(2, TWO_ITEMS + b"a "), id="items-empty-key"),
        pytest.param(wire.ITEMS, _items(2, TWO_ITEMS + b"a \xff"), id="items-key-not-utf8"),
        pytest.param(
            wire.ITEMS, _items(2, TWO_ITEMS + b"a " + LONG_KEY_TEXT), id="items-key-too-long"
        ),
        pytest.param(
            wire.ITEMS, _items(2, TWO_ITEMS + b"a\r\n b"), id="items-key-with-whitespace"
        ),
        pytest.param(
            wire.ITEMS,
            _items(2, TWO_ITEMS + b"a b")[: -len(wire.END)] + b"STORED\r\n",
            id="items-missing-end",
        ),
        pytest.param(wire.ITEMS, b"ITEM a 7 1.5 3\r\nxyz\r\nEND\r\n", id="items-text-row"),
    ],
)
def test_a_malformed_ts_block_is_rejected(framing, reply):
    assert wire.ts_reply(["a", "b"], [1.5, 2.5], [3, 4]) == _packed(2, TWO_ROWS + b"a b")
    records = [
        MigratedItem("a", (7, b"xyz"), 3, 1.5), MigratedItem("b", (0, b"w"), 1, 2.5)
    ]
    assert wire.items_reply(records) == _items(2, TWO_ITEMS + b"a b")
    framer = wire.ReplyFramer()
    framer.expect([framing])
    with pytest.raises(WireProtocolError):
        framer.feed(reply)


def test_an_export_reply_carries_an_import_body_byte_for_byte():
    """The block a ``mig_export`` answers with is the ``batch_import``
    body of the same records, so a relay can forward it as it stands."""
    records = [
        MigratedItem("a", (3, b"xy"), 2, 1.5),
        MigratedItem("key:é", (2**32 - 1, b"\r\nEND\r\n"), 7, 0.25),
        MigratedItem("c", b"raw", 3, 9.0),
    ]
    body = wire.items_payload(records)
    server = TextProtocolServer(MemcachedNode("n", MEMORY), lambda: 100.0)
    request = wire.encode_request("batch_import", ["merge", "3"], body)
    assert server.feed(request) == b"IMPORTED 3\r\n"
    reply = server.feed(wire.encode_request("mig_export", [], "a key:é c".encode()))
    assert reply == b"ITEMS 3 %d\r\n%b\r\nEND\r\n" % (len(body), body)
    framer = wire.ReplyFramer()
    framer.expect([wire.ITEMS])
    [exported] = framer.feed(reply)
    assert exported == [
        MigratedItem("a", (3, b"xy"), 2, 1.5),
        MigratedItem("key:é", (2**32 - 1, b"\r\nEND\r\n"), 7, 0.25),
        MigratedItem("c", (0, b"raw"), 3, 9.0),
    ]


def test_negative_payload_size_is_rejected_not_read_backwards():
    framer = wire.ReplyFramer()
    framer.expect([wire.VALUES])
    with pytest.raises(WireProtocolError, match="payload size -2"):
        framer.feed(b"VALUE k 0 -2\r\nEND\r\nEND\r\n")

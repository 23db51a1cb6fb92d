"""The shared wire codec: table self-check, node-vs-proxy parity, and
the three defects the hand-written parsers had drifted into.

The command table in :mod:`repro.wire` is the only statement of the
dialect; these tests check that every speaker is wired to all of it
(nothing in the table without a handler, no handler outside the table)
and that a :class:`~repro.net.server.NodeServer` and a
:class:`~repro.proxy.server.ProxyServer` answer the same edge requests
with the same bytes over real sockets.
"""

import re
import socket
import time
from pathlib import Path

import pytest

from repro import wire
from repro.errors import WireProtocolError
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.node import MigratedItem
from repro.memcached.protocol import TextProtocolServer
from repro.memcached.slab import PAGE_SIZE
from repro.net import LiveClusterHarness, NodeClient
from repro.net import client as net_client
from repro.net.runtime import EventLoopThread
from repro.proxy import ProxyConfig, ProxyHarness
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
    assert set(net_client._READERS) == framings
    assert set(wire.BLOCKS) == framings - {wire.LINE}
    readers = list(net_client._READERS.values())
    assert len(set(readers)) == len(readers)


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
    record = MigratedItem("k" * MAX_KEY_LENGTH, (2**32, b""), 0, 1e300 / 3)
    header = wire.encode_request("batch_import", ["merge"], [record])
    assert max(map(len, header.split(wire.CRLF))) <= MAX_LINE


def sample_request(verb: str) -> tuple[list[str], object]:
    """Arguments (size/count excluded) and body of a well-formed call."""
    command = COMMANDS[verb]
    body = {
        "": None,
        wire.PAYLOAD: b"pay\r\nload",
        wire.KEY_LINES: ["a", "b"],
        wire.ITEM_BLOCKS: [
            MigratedItem("a", (3, b"xy"), 2, 1.5),
            MigratedItem("b", (0, b""), 0, 2.5),
        ],
    }[command.body]
    count = command.min_args - (1 if command.body else 0)
    args = ["merge" if verb == "batch_import" else "7"] * count
    return args, body


@pytest.mark.parametrize("verb", sorted(ANSWERED))
@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_client_encoder_and_server_framer_agree(verb, chunk):
    args, body = sample_request(verb)
    data = wire.encode_request(verb, args, body)
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
#  expected reply or None when only parity is asserted)
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
        assert node_reply == expected


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
            rb"ITEM k 7 [\d.]+ 5\r\nhello\r\nEND\r\n",
            execute("mig_export 1", b"k"),
        )
        assert re.fullmatch(rb"TS k [\d.]+ 5\r\nEND\r\n", execute("ts_dump 0"))
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
        assert harness.breaker_state("n0") == "half_open"
        with pytest.raises(WireProtocolError, match="object too large"):
            loop.call(client.set("big", huge))
        assert harness.breaker_state("n0") == "closed"
        assert loop.call(client.set("big", b"small")) is True
        loop.call(client.close())

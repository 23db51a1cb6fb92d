"""Fuzz tests for the text-protocol parser.

Random byte chunking and random command streams must never crash the
server, and every complete command must elicit a well-formed response.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memcached.node import MemcachedNode
from repro.memcached.protocol import TextProtocolServer
from repro.memcached.slab import PAGE_SIZE
from repro.wire import TS, ReplyFramer

KNOWN_REPLIES = (
    b"STORED",
    b"NOT_STORED",
    b"EXISTS",
    b"NOT_FOUND",
    b"DELETED",
    b"TOUCHED",
    b"OK",
    b"ERROR",
    b"CLIENT_ERROR",
    b"SERVER_ERROR",
    b"VALUE",
    b"END",
    b"VERSION",
    b"STAT",
    b"TS",
    b"IMPORTED",
)


def make_server() -> TextProtocolServer:
    node = MemcachedNode("fuzz", 4 * PAGE_SIZE)
    return TextProtocolServer(node, clock=lambda: 1.0)


keys = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Nd"), max_codepoint=127
    ),
    min_size=1,
    max_size=8,
)

command_lines = st.one_of(
    st.builds(lambda k: f"get {k}", keys),
    st.builds(lambda k: f"delete {k}", keys),
    st.builds(lambda k, d: f"incr {k} {d}", keys, st.integers(0, 100)),
    st.builds(lambda k, t: f"touch {k} {t}", keys, st.integers(0, 50)),
    st.builds(lambda c: f"ts_dump {c}", st.integers(-2, 60)),
    st.builds(
        lambda m, r, c: f"batch_import {m} {r} {c}",
        st.sampled_from(["merge", "prepend", "fresh", "bogus"]),
        st.integers(-1, 3),
        st.integers(-1, 3),
    ),
    st.just("stats"),
    st.just("version"),
    st.just("flush_all"),
    st.text(max_size=20).filter(lambda s: "\r" not in s and "\n" not in s),
)


@given(st.lists(command_lines, max_size=20))
@settings(max_examples=100, deadline=None)
def test_random_command_streams_never_crash(lines):
    server = make_server()
    wire = b"".join(line.encode("utf-8", "replace") + b"\r\n" for line in lines)
    response = server.feed(wire)
    assert isinstance(response, bytes)


@given(
    st.lists(
        st.tuples(keys, st.binary(min_size=0, max_size=40)), max_size=10
    ),
    st.integers(1, 7),
)
@settings(max_examples=100, deadline=None)
def test_chunked_storage_roundtrip(pairs, chunk_size):
    """set commands fed in arbitrary chunk sizes still store correctly."""
    server = make_server()
    wire = b"".join(
        f"set {key} 0 0 {len(payload)}".encode() + b"\r\n" + payload + b"\r\n"
        for key, payload in pairs
    )
    responses = b""
    for start in range(0, len(wire), chunk_size):
        responses += server.feed(wire[start : start + chunk_size])
    assert responses.count(b"STORED\r\n") == len(pairs)
    # Every stored key is retrievable with its exact payload.
    for key, payload in dict(pairs).items():
        out = server.execute(f"get {key}")
        assert payload in out


@given(st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_arbitrary_bytes_never_crash(blob):
    server = make_server()
    response = server.feed(blob)
    assert isinstance(response, bytes)


@given(st.lists(command_lines, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_responses_start_with_known_tokens(lines):
    server = make_server()
    for line in lines:
        out = server.execute(line)
        if not out:
            continue
        first = out.split(b"\r\n")[0]
        assert any(
            first.startswith(reply) for reply in KNOWN_REPLIES
        ), first


# ---------------------------------------------------------------------------
# ts_dump / batch_import (the migration wire commands added in PR 4)
# ---------------------------------------------------------------------------


def packed_block(rows) -> bytes:
    """A key-value block packed by hand from ``(key, last_access, flags,
    value)`` rows: float64 stamps, int64 sizes, uint32 flags, the values
    concatenated, then the keys joined by spaces."""
    count = len(rows)
    return (
        struct.pack(
            f"<{count}d{count}q{count}I",
            *(last_access for _, last_access, _, _ in rows),
            *(len(value) for _, _, _, value in rows),
            *(flags for _, _, flags, _ in rows),
        )
        + b"".join(value for _, _, _, value in rows)
        + " ".join(key for key, _, _, _ in rows).encode()
    )


def import_wire(mode: str, records) -> bytes:
    """A ``batch_import`` request of ``(key, last_access, payload)``
    records: the command line, then one packed block and its CRLF."""
    block = packed_block([(key, stamp, 0, payload) for key, stamp, payload in records])
    return f"batch_import {mode} {len(records)} {len(block)}\r\n".encode() + block + b"\r\n"


import_records = st.lists(
    st.tuples(
        keys,
        st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
        st.binary(min_size=0, max_size=60),
    ),
    max_size=8,
    unique_by=lambda record: record[0],
)


@given(
    import_records,
    st.sampled_from(["merge", "prepend", "fresh"]),
    st.integers(1, 9),
)
@settings(max_examples=100, deadline=None)
def test_batch_import_roundtrip_any_chunking(records, mode, chunk_size):
    """Well-formed imports succeed whole, regardless of byte chunking."""
    server = make_server()
    wire = import_wire(mode, records)
    responses = b""
    for start in range(0, len(wire), chunk_size):
        responses += server.feed(wire[start : start + chunk_size])
    assert f"IMPORTED {len(records)}".encode() + b"\r\n" in responses
    for key, _, _ in records:
        assert server.node.contains(key)


@given(import_records.filter(lambda r: len(r) >= 1))
@settings(max_examples=50, deadline=None)
def test_batch_import_duplicate_keys_rejected_atomically(records):
    server = make_server()
    duplicated = records + [records[0]]
    wire = import_wire("merge", duplicated)
    out = server.feed(wire)
    assert b"CLIENT_ERROR duplicate key in batch" in out
    assert b"IMPORTED" not in out
    assert len(server.node) == 0  # nothing from the batch was installed


def test_batch_import_empty_batch():
    server = make_server()
    assert server.feed(import_wire("merge", [])) == b"IMPORTED 0\r\n"
    assert server.feed(b"batch_import merge 0 0\r\n\r\n") == b"IMPORTED 0\r\n"
    assert len(server.node) == 0


def test_batch_import_rejects_bad_mode_and_count():
    server = make_server()
    block = import_wire("merge", [("a", 1.0, b"x")]).split(b"\r\n", 1)[1]
    size = len(block) - 2
    # A bad mode or row count is answered once its block is read, so the
    # connection stays in step.
    for line, error in [
        (f"batch_import sideways 1 {size}", b"CLIENT_ERROR unknown import mode"),
        (f"batch_import merge -3 {size}", b"CLIENT_ERROR bad data block"),
        (f"batch_import merge many {size}", b"CLIENT_ERROR bad data block"),
        (f"batch_import merge 2 {size}", b"CLIENT_ERROR bad data block"),
    ]:
        out = server.feed(line.encode() + b"\r\n" + block + b"version\r\n")
        assert out.startswith(error + b"\r\nVERSION "), (line, out)
    # A bad size or arity is refused before any body is read.
    assert b"CLIENT_ERROR" in server.execute("batch_import merge 1 -3")
    assert b"CLIENT_ERROR" in server.execute("batch_import merge 1 many")
    assert b"CLIENT_ERROR" in server.execute("batch_import merge 1")
    assert server.execute("version").startswith(b"VERSION")
    assert len(server.node) == 0


@given(st.integers(-5, -1))
@settings(max_examples=20, deadline=None)
def test_batch_import_malformed_item_size_aborts(bad_size):
    server = make_server()
    wire = import_wire("merge", [("alpha", 1.0, b"abcd"), ("beta", 2.0, b"")])
    # The second row's int64 size, after the two float64 stamps and the
    # first size.
    at = wire.index(b"\r\n") + 2 + 24
    wire = wire[:at] + struct.pack("<q", bad_size) + wire[at + 8 :]
    out = server.feed(wire + b"version\r\n")
    assert out.startswith(b"CLIENT_ERROR bad data block\r\nVERSION ")
    assert len(server.node) == 0
    assert server.execute("version").startswith(b"VERSION")


def test_batch_import_bad_data_trailer_aborts():
    server = make_server()
    wire = import_wire("merge", [("alpha", 1.0, b"abcd")])[:-2] + b"XY"
    out = server.feed(wire + b"version\r\n")
    assert out.startswith(b"CLIENT_ERROR bad data chunk\r\nVERSION ")
    assert len(server.node) == 0


@given(st.lists(st.tuples(keys, st.binary(max_size=30)), max_size=6))
@settings(max_examples=50, deadline=None)
def test_ts_dump_reflects_stored_items(pairs):
    server = make_server()
    for key, payload in dict(pairs).items():
        server.execute(f"set {key} 0 0 {len(payload)}", payload)
    seen = {}
    for class_id in range(len(server.node.slabs.classes)):
        out = server.execute(f"ts_dump {class_id}")
        assert out.startswith(b"TS ") and out.endswith(b"END\r\n")
        framer = ReplyFramer()
        framer.expect([TS])
        [rows] = framer.feed(out)
        assert not framer.unread
        for key, last_access, size in rows:
            assert key not in seen and last_access == 1.0
            seen[key] = size
    assert seen == {key: len(payload) for key, payload in dict(pairs).items()}


def test_ts_dump_rejects_bad_class():
    server = make_server()
    assert b"CLIENT_ERROR" in server.execute("ts_dump -1")
    assert b"CLIENT_ERROR" in server.execute("ts_dump 9999")
    assert b"CLIENT_ERROR" in server.execute("ts_dump about")
    assert b"CLIENT_ERROR" in server.execute("ts_dump")


# ---------------------------------------------------------------------------
# trace framing (the cross-process propagation prefix)
# ---------------------------------------------------------------------------


hex_ids = st.text(alphabet="0123456789abcdef", min_size=1, max_size=32)
span_ids = st.text(alphabet="0123456789abcdef", min_size=1, max_size=16)


# A batch_import line announces a body that follows it -- a trace frame
# is only recognised at command position, so the transparency property
# holds per *command*, not per wire line.
single_line_commands = command_lines.filter(
    lambda line: not line.startswith("batch_import")
)


@given(
    hex_ids, span_ids, st.lists(single_line_commands, min_size=1, max_size=6)
)
@settings(max_examples=80, deadline=None)
def test_trace_prefix_is_response_transparent(trace_id, span_id, lines):
    """A valid trace frame must never change what the command answers."""
    plain = make_server()
    framed = make_server()
    for line in lines:
        expected = plain.execute(line)
        wire = (
            f"trace {trace_id} {span_id}".encode()
            + b"\r\n"
            + line.encode("utf-8", "replace")
            + b"\r\n"
        )
        assert framed.feed(wire) == expected


@given(
    hex_ids,
    span_ids,
    st.lists(st.tuples(keys, st.binary(max_size=30)), min_size=1, max_size=4),
    st.integers(1, 7),
)
@settings(max_examples=60, deadline=None)
def test_trace_frame_survives_any_chunking(
    trace_id, span_id, pairs, chunk_size
):
    """Chunk-split trace frames + storage commands still store cleanly."""
    server = make_server()
    wire = b"".join(
        f"trace {trace_id} {span_id}".encode()
        + b"\r\n"
        + f"set {key} 0 0 {len(payload)}".encode()
        + b"\r\n"
        + payload
        + b"\r\n"
        for key, payload in pairs
    )
    responses = b""
    for start in range(0, len(wire), chunk_size):
        responses += server.feed(wire[start : start + chunk_size])
    assert responses.count(b"STORED\r\n") == len(pairs)
    for key, payload in dict(pairs).items():
        assert payload in server.execute(f"get {key}")


bad_trace_lines = st.one_of(
    st.just("trace"),
    st.just("trace abc"),
    st.just("trace abc def ghi"),
    st.builds(lambda t: f"trace {t} ab", st.text(max_size=8).filter(
        lambda s: (
            s
            and "\r" not in s
            and "\n" not in s
            and " " not in s
            and not all(c in "0123456789abcdef" for c in s)
        )
    )),
    # Oversized ids: one past the 32/16-char caps.
    st.just("trace " + "a" * 33 + " ab"),
    st.just("trace ab " + "b" * 17),
    # Uppercase hex is rejected; the wire format is lowercase-only.
    st.just("trace DEADBEEF ab"),
)


@given(bad_trace_lines, st.lists(command_lines, max_size=4))
@settings(max_examples=80, deadline=None)
def test_malformed_trace_frames_rejected_deterministically(bad, lines):
    """A bad frame answers CLIENT_ERROR and never wedges the parser."""
    server = make_server()
    out = server.execute(bad)
    assert out.startswith(b"CLIENT_ERROR bad trace frame"), (bad, out)
    # The connection keeps serving; no stale context survives.
    assert server.execute("version").startswith(b"VERSION")
    for line in lines:
        reply = server.execute(line)
        if reply:
            first = reply.split(b"\r\n")[0]
            assert any(first.startswith(r) for r in KNOWN_REPLIES), first


def test_trace_frame_applies_to_exactly_one_command():
    """The context covers only the next command, then clears."""
    from repro.obs import create_telemetry
    from repro.memcached.node import MemcachedNode

    telemetry = create_telemetry("fuzz", trace_sample=1.0)
    node = MemcachedNode("fuzz", 4 * PAGE_SIZE)
    server = TextProtocolServer(node, clock=lambda: 1.0, telemetry=telemetry)
    out = server.feed(
        b"trace abcd1234 ef01\r\n"
        b"set k 0 0 1\r\nv\r\n"
        b"get k\r\n"
    )
    assert b"STORED" in out and b"VALUE k" in out
    spans = telemetry.tracer.spans
    assert [s.name for s in spans] == ["server.set"]
    assert spans[0].trace_id == "abcd1234"
    assert spans[0].parent_id == "ef01"


def test_consecutive_trace_frames_latest_wins():
    """A trace frame replaces any unconsumed predecessor."""
    from repro.obs import create_telemetry
    from repro.memcached.node import MemcachedNode

    telemetry = create_telemetry("fuzz", trace_sample=1.0)
    node = MemcachedNode("fuzz", 4 * PAGE_SIZE)
    server = TextProtocolServer(node, clock=lambda: 1.0, telemetry=telemetry)
    out = server.feed(
        b"trace aaaa 01\r\ntrace bbbb 02\r\nget missing\r\n"
    )
    assert out == b"END\r\n"
    assert [s.trace_id for s in telemetry.tracer.spans] == ["bbbb"]

"""Wire-layer tests for the live tier's protocol framing.

The asyncio server hands the incremental parser whatever chunks the
socket delivers, so correctness hinges on two properties exercised
here: (1) byte-at-a-time and mid-payload fragmentation produce exactly
the same responses as one big write, and (2) pipelined bursts answer
every command in order.  The migration commands (``ts_dump``,
``mig_export``, ``batch_import``) get the same treatment, plus a
flags round-trip across an export/import hop.

The second half turns to the other end of the socket:
:class:`~repro.net.client.NodeClient`'s connection semantics -- timeout,
retry, cancellation, rejection mid-pipeline, flow control, unsolicited
bytes, timers, close -- against a scripted fake server over real TCP.
"""

import asyncio
import gc
import random
import re
import warnings

import pytest

from repro.core.retry import RetryPolicy
from repro.errors import TransportError, WireProtocolError
from repro.memcached.node import MemcachedNode, MigratedItem
from repro.memcached.protocol import TextProtocolServer
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.server import LiveClusterHarness
from repro.net.runtime import EventLoopThread
from repro.obs import create_telemetry
from repro.wire import ITEMS, TS, ReplyFramer
from tests.test_protocol_fuzz import packed_block


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> Clock:
    return Clock()


@pytest.fixture
def node() -> MemcachedNode:
    return MemcachedNode("n0", 8 * PAGE_SIZE)


@pytest.fixture
def server(node, clock) -> TextProtocolServer:
    return TextProtocolServer(node, clock)


def storage_wire(key: str, payload: bytes, flags: int = 0) -> bytes:
    return (
        f"set {key} {flags} 0 {len(payload)}".encode()
        + b"\r\n"
        + payload
        + b"\r\n"
    )


def feed_in_chunks(server, wire: bytes, chunk_size: int) -> bytes:
    out = []
    for start in range(0, len(wire), chunk_size):
        out.append(server.feed(wire[start : start + chunk_size]))
    return b"".join(out)


class TestFragmentation:
    """Responses must not depend on where the stream is split."""

    WIRE = (
        storage_wire("greeting", b"Hello, world!", flags=7)
        + b"get greeting\r\n"
        + b"delete greeting\r\n"
        + b"get greeting\r\n"
    )

    def expected(self, clock) -> bytes:
        reference = TextProtocolServer(
            MemcachedNode("ref", 8 * PAGE_SIZE), clock
        )
        return reference.feed(self.WIRE)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 7, 64])
    def test_chunked_equals_whole(self, server, clock, chunk_size):
        assert (
            feed_in_chunks(server, self.WIRE, chunk_size)
            == self.expected(clock)
        )

    def test_split_mid_payload(self, server):
        wire = storage_wire("k", b"0123456789")
        head, tail = wire[:20], wire[20:]
        assert server.feed(head) == b""
        assert server.feed(tail) == b"STORED\r\n"

    def test_split_mid_command_line(self, server):
        assert server.feed(b"ver") == b""
        assert server.feed(b"sion\r\n").startswith(b"VERSION")

    def test_split_between_payload_and_crlf(self, server):
        wire = storage_wire("k", b"abc")
        assert server.feed(wire[:-2]) == b""
        assert server.feed(wire[-2:]) == b"STORED\r\n"


class TestPipelining:
    def test_burst_answers_in_order(self, server):
        wire = (
            storage_wire("a", b"1")
            + storage_wire("b", b"22")
            + b"get a\r\n"
            + b"get b\r\n"
            + b"get ghost\r\n"
        )
        assert server.feed(wire) == (
            b"STORED\r\nSTORED\r\n"
            b"VALUE a 0 1\r\n1\r\nEND\r\n"
            b"VALUE b 0 2\r\n22\r\nEND\r\n"
            b"END\r\n"
        )

    def test_error_does_not_derail_pipeline(self, server):
        wire = b"bogus_command\r\n" + storage_wire("k", b"v") + b"get k\r\n"
        assert server.feed(wire) == (
            b"ERROR\r\nSTORED\r\nVALUE k 0 1\r\nv\r\nEND\r\n"
        )


class TestMigrationFraming:
    def seed(self, server, clock):
        for i in range(4):
            clock.now = float(i)
            assert (
                server.feed(storage_wire(f"key-{i}", b"x" * 16, flags=i))
                == b"STORED\r\n"
            )

    def test_ts_dump_fragmented(self, server, clock):
        self.seed(server, clock)
        out = feed_in_chunks(server, b"ts_dump 0\r\n", 1)
        assert out == server.feed(b"ts_dump 0\r\n")
        assert out.startswith(b"TS 4 ") and out.endswith(b"\r\nEND\r\n")
        framer = ReplyFramer()
        framer.expect([TS])
        [rows] = framer.feed(out)
        assert rows == [
            ("key-3", 3.0, 16), ("key-2", 2.0, 16),
            ("key-1", 1.0, 16), ("key-0", 0.0, 16),
        ]

    def test_mig_export_fragmented_keys(self, server, clock):
        """The key body of a mig_export may arrive split."""
        self.seed(server, clock)
        wire = b"mig_export 11\r\nkey-1 key-3\r\n"
        out = feed_in_chunks(server, wire, 3)
        block = packed_block(
            [("key-1", 1.0, 1, b"x" * 16), ("key-3", 3.0, 3, b"x" * 16)]
        )
        assert out == b"ITEMS 2 %d\r\n%b\r\nEND\r\n" % (len(block), block)
        framer = ReplyFramer()
        framer.expect([ITEMS])
        assert framer.feed(out) == [[
            MigratedItem("key-1", (1, b"x" * 16), 16, 1.0),
            MigratedItem("key-3", (3, b"x" * 16), 16, 3.0),
        ]]

    def test_mig_export_skips_missing_keys(self, server, clock):
        self.seed(server, clock)
        out = server.feed(b"mig_export 11\r\nghost key-0\r\n")
        block = packed_block([("key-0", 0.0, 0, b"x" * 16)])
        assert out == b"ITEMS 1 %d\r\n%b\r\nEND\r\n" % (len(block), block)
        assert b"ghost" not in out

    def test_batch_import_fragmented_payload(self, server, clock):
        clock.now = 9.0
        block = packed_block([("alpha", 1.5, 11, b"AAAA"), ("beta", 2.5, 0, b"BBBB")])
        wire = b"batch_import merge 2 %d\r\n%b\r\n" % (len(block), block)
        out = feed_in_chunks(server, wire, 5)
        assert out == b"IMPORTED 2\r\n"
        assert server.feed(b"get alpha\r\n") == (
            b"VALUE alpha 11 4\r\nAAAA\r\nEND\r\n"
        )

    def test_flags_survive_export_import_hop(self, node, server, clock):
        """flags set on the source come back out of the destination."""
        self.seed(server, clock)
        exported = server.feed(b"mig_export 5\r\nkey-2\r\n")
        block = packed_block([("key-2", 2.0, 2, b"x" * 16)])
        assert exported == b"ITEMS 1 %d\r\n%b\r\nEND\r\n" % (len(block), block)
        dst = TextProtocolServer(
            MemcachedNode("dst", 8 * PAGE_SIZE), clock
        )
        # The export's block is a batch_import body as it stands.
        header, rest = exported.split(b"\r\n", 1)
        _, rows, size = header.split()
        import_wire = b"batch_import merge %b %b\r\n%b" % (
            rows, size, rest[: -len(b"END\r\n")]
        )
        assert dst.feed(import_wire) == b"IMPORTED 1\r\n"
        assert dst.feed(b"get key-2\r\n") == (
            b"VALUE key-2 2 16\r\n" + b"x" * 16 + b"\r\nEND\r\n"
        )

    def test_import_timestamps_ignore_server_clock(self, server, clock):
        """merge-mode installs keep the shipped last_access, which is
        what makes socket and in-process migrations byte-identical."""
        clock.now = 500.0
        block = packed_block([("old", 12.25, 0, b"abc")])
        assert server.feed(
            b"batch_import merge 1 %d\r\n%b\r\n" % (len(block), block)
        ) == b"IMPORTED 1\r\n"
        # One row: float64 12.25, int64 3, then the key, little-endian.
        assert server.feed(b"ts_dump 0\r\n") == (
            b"TS 1 19\r\n"
            b"\x00\x00\x00\x00\x00\x80\x28\x40"
            b"\x03\x00\x00\x00\x00\x00\x00\x00"
            b"old\r\nEND\r\n"
        )

    def test_duplicate_import_keys_rejected(self, server):
        block = packed_block([("dup", 1.0, 0, b"A"), ("dup", 2.0, 0, b"B")])
        out = server.feed(
            b"batch_import merge 2 %d\r\n%b\r\nversion\r\n" % (len(block), block)
        )
        assert out.startswith(b"CLIENT_ERROR duplicate key in batch: dup\r\nVERSION ")
        assert len(server.node) == 0


# ----------------------------------------------------------------------
# NodeClient connection semantics over real sockets
# ----------------------------------------------------------------------


class ScriptedServer:
    """A localhost listener whose connections each run ``script(reader,
    writer, index)``; ``index`` counts accepted connections from 0."""

    def __init__(self, script) -> None:
        self.script = script
        self.connections = 0
        self.hung_up: list[int] = []  # connections the client let go of

    async def __aenter__(self) -> "ScriptedServer":
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        index = self.connections
        self.connections += 1
        try:
            await self.script(reader, writer, index)
            # Whatever the script left unread: is the client still there?
            while await reader.read(65536):
                pass
        except OSError:
            pass  # the client aborted (RST)
        finally:
            self.hung_up.append(index)
            writer.close()

    def client(self, **options) -> NodeClient:
        options.setdefault("retry", RetryPolicy(max_attempts=3, base_backoff_s=0.001))
        self.telemetry = create_telemetry()
        return NodeClient(
            "fake", "127.0.0.1", self.port, telemetry=self.telemetry, **options
        )

    def counter(self, name: str) -> float:
        return self.telemetry.metrics.counter(name, node="fake").value


async def request_of(reader, commands: int = 1) -> bytes:
    """Read until ``commands`` bodiless command lines are in."""
    data = b""
    while data.count(b"\r\n") < commands:
        chunk = await reader.read(65536)
        assert chunk, "client hung up mid-request"
        data += chunk
    return data


async def answer_gets(reader, writer, index=0) -> None:
    """Every ``get`` line misses, for as long as the client keeps asking."""
    while chunk := await reader.read(65536):
        writer.write(b"END\r\n" * chunk.count(b"\r\n"))


@pytest.fixture
def on_loop():
    """Run a coroutine on a background loop and assert what it leaves
    behind: no timer still armed (a connection's deadline timer is
    cancelled when the connection is aborted or closed) and nothing
    reported to the loop's exception handler (a callback that raised, a
    future whose exception nobody retrieved).  Timers are recorded at
    ``call_at``, which ``call_later`` goes through."""
    with EventLoopThread(name="test-scripted") as thread:

        async def watched(coro):
            loop = asyncio.get_running_loop()
            timers, call_at = [], loop.call_at
            reported: list[dict] = []

            def recording_call_at(*args, **kwargs):
                timers.append(call_at(*args, **kwargs))
                return timers[-1]

            loop.call_at = recording_call_at
            loop.set_exception_handler(lambda _, context: reported.append(context))
            try:
                result = await coro
            finally:
                del loop.call_at
            armed = [
                timer
                for timer in timers
                if not timer.cancelled() and timer.when() > loop.time()
            ]
            assert timers and not armed, armed
            gc.collect()  # unretrieved exceptions are reported on collection
            assert not reported, reported
            return result

        yield lambda coro: thread.call(watched(coro), timeout=30.0)


class TestClientConnectionSemantics:
    def test_stall_mid_reply_times_out_per_attempt_then_transport_error(
        self, on_loop
    ):
        async def stall_mid_reply(reader, writer, index):
            await request_of(reader)
            writer.write(b"VALUE k 0 5\r\nhe")

        async def scenario():
            async with ScriptedServer(stall_mid_reply) as server:
                client = server.client(timeout_s=0.05)
                with pytest.raises(TransportError) as failure:
                    await client.get("k")
                assert re.fullmatch(
                    rf"node 'fake' at 127\.0\.0\.1:{server.port}: request "
                    r"failed after 3 attempt\(s\): TimeoutError\(\)",
                    str(failure.value),
                )
                assert isinstance(failure.value.__cause__, asyncio.TimeoutError)
                # One fresh connection per attempt, none kept.
                assert server.connections == 3
                assert server.counter("net_client_retries_total") == 2
                assert server.counter("net_client_transport_errors_total") == 1
                await client.close()

        on_loop(scenario())

    def test_cancelled_caller_discards_the_connection_and_frees_its_slot(
        self, on_loop
    ):
        asked = asyncio.Event()

        async def mute_then_answer(reader, writer, index):
            if index == 0:
                await request_of(reader)
                asked.set()
            else:
                await answer_gets(reader, writer)

        async def scenario():
            async with ScriptedServer(mute_then_answer) as server:
                client = server.client(pool_size=1)
                caller = asyncio.ensure_future(client.get("k"))
                await asked.wait()
                caller.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await caller
                # pool_size=1: this hangs unless the slot came back, and
                # is answered only on a second connection.
                assert await client.get("k") is None
                assert server.connections == 2
                assert server.hung_up == [0]
                assert server.counter("net_client_retries_total") == 0
                await client.close()

        on_loop(scenario())

    def test_rejection_mid_pipeline_is_not_retried_and_drops_the_connection(
        self, on_loop
    ):
        async def reject_the_second(reader, writer, index):
            if index == 0:
                await request_of(reader, commands=6)  # 3 x (line, payload)
                writer.write(
                    b"STORED\r\nCLIENT_ERROR bad data chunk\r\nSTORED\r\n"
                )
            else:
                await answer_gets(reader, writer)

        async def scenario():
            async with ScriptedServer(reject_the_second) as server:
                client = server.client(pool_size=1)
                entries = [(f"k{i}", 0, b"v") for i in range(3)]
                with pytest.raises(WireProtocolError, match="bad data chunk"):
                    await client.set_many(entries)
                assert server.connections == 1
                assert server.counter("net_client_retries_total") == 0
                # The replies behind the rejection are out of step: the
                # next request must not read them.
                assert await client.get("k") is None
                assert server.connections == 2
                await client.close()

        on_loop(scenario())

    @pytest.mark.parametrize("trickle", [False, True], ids=["one-chunk", "bytewise"])
    def test_64_deep_pipeline_replies_in_one_chunk_or_byte_by_byte(
        self, on_loop, trickle
    ):
        async def answer(reader, writer, index):
            await request_of(reader, commands=128)
            reply = b"STORED\r\n" * 63 + b"NOT_STORED\r\n"
            if not trickle:
                writer.write(reply)
                return
            for at in range(len(reply)):
                writer.write(reply[at : at + 1])
                await asyncio.sleep(0)  # one segment per byte (TCP_NODELAY)

        async def scenario():
            async with ScriptedServer(answer) as server:
                client = server.client()
                entries = [(f"k{i}", 0, b"v") for i in range(64)]
                assert await client.set_many(entries) == 63
                assert server.counter("net_client_requests_total") == 1
                await client.close()

        on_loop(scenario())

    def test_bytes_nobody_asked_for_break_the_connection(self, on_loop):
        pushed = asyncio.Event()

        async def push_after_answering(reader, writer, index):
            await request_of(reader)
            writer.write(b"END\r\n")
            if index == 0:
                await asyncio.sleep(0.02)  # the round trip is over by now
                writer.write(b"VALUE k 0 5\r\nstale\r\nEND\r\n")
                await writer.drain()
                pushed.set()

        async def scenario():
            async with ScriptedServer(push_after_answering) as server:
                client = server.client(pool_size=1)
                assert await client.get("k") is None
                await pushed.wait()
                await asyncio.sleep(0.02)
                # Read as this request's reply, the push would be a hit.
                assert await client.get("k") is None
                assert server.connections == 2
                assert server.counter("net_client_retries_total") == 0
                await client.close()

        on_loop(scenario())

    def test_bytes_behind_the_last_reply_break_the_connection(self, on_loop):
        async def answer_twice(reader, writer, index):
            await request_of(reader)
            writer.write(b"END\r\n" if index else b"END\r\nEND\r\n")

        async def scenario():
            async with ScriptedServer(answer_twice) as server:
                client = server.client(pool_size=1)
                assert await client.get("k") is None  # the batch is whole
                assert await client.get("k") is None
                assert server.connections == 2
                assert server.counter("net_client_retries_total") == 0
                await client.close()

        on_loop(scenario())

    def test_one_deadline_bounds_the_dial_and_the_round_trip(self, on_loop):
        timeout_s = 0.3

        async def never_answer(reader, writer, index):
            pass  # the listener reads the request and says nothing

        async def scenario():
            async with ScriptedServer(never_answer) as server:
                client = server.client(timeout_s=timeout_s)
                dial = client._dial

                async def slow_dial():
                    await asyncio.sleep(0.9 * timeout_s)
                    return await dial()

                client._dial = slow_dial
                loop = asyncio.get_running_loop()
                start = loop.time()
                with pytest.raises(TransportError):
                    await client.get("k")
                elapsed = loop.time() - start
                # An attempt whose dial took 0.9 x timeout_s has only the
                # rest of the budget for its round trip, not a fresh one.
                attempts = client.retry.max_attempts
                backoff = sum(
                    client.retry.backoff_s(failures)
                    for failures in range(1, attempts)
                )
                assert server.connections == attempts
                assert elapsed < attempts * timeout_s + backoff + timeout_s / 2
                await client.close()

        on_loop(scenario())

    def test_a_reused_connection_times_out_at_its_own_deadline(self, on_loop):
        """The connection's timer, armed by the first round trip, fires
        while the second is in flight but not yet due: it re-arms, and
        the second fails at its own deadline -- not earlier, not later."""
        timeout_s = 0.2

        async def answer_once(reader, writer, index):
            await request_of(reader)
            writer.write(b"END\r\n")  # then ignores the second request

        async def scenario():
            async with ScriptedServer(answer_once) as server:
                client = server.client(
                    timeout_s=timeout_s, retry=RetryPolicy(max_attempts=1)
                )
                assert await client.get("k") is None
                await asyncio.sleep(timeout_s / 2)
                loop = asyncio.get_running_loop()
                start = loop.time()
                with pytest.raises(TransportError, match="TimeoutError"):
                    await client.get("k")
                elapsed = loop.time() - start
                assert server.connections == 1
                assert timeout_s - 0.005 <= elapsed < timeout_s + 0.1, elapsed
                await client.close()

        on_loop(scenario())

    def test_timers_do_not_scale_with_round_trips(self, on_loop):
        async def scenario():
            async with ScriptedServer(answer_gets) as server:
                client = server.client(pool_size=2, timeout_s=60.0)
                loop = asyncio.get_running_loop()
                armed, call_at = [], loop.call_at

                def recording_call_at(*args, **kwargs):
                    armed.append(call_at(*args, **kwargs))
                    return armed[-1]

                loop.call_at = recording_call_at
                try:
                    for _ in range(1000):
                        keys = ["a", "b", "c", "d"]
                        assert await client.get_many(keys) == [None] * 4
                finally:
                    loop.call_at = call_at
                # One deadline timer per connection, re-armed, not one
                # per round trip.
                assert 1 <= len(armed) <= 2, len(armed)
                await client.close()
                assert all(timer.cancelled() for timer in armed)

        on_loop(scenario())

    @pytest.mark.parametrize(
        "woken_then_cancelled", [False, True], ids=["queued", "woken"]
    )
    def test_slots_go_to_queued_callers_in_arrival_order(
        self, on_loop, woken_then_cancelled
    ):
        stalled = asyncio.Event()
        asked: list[str] = []

        async def stall_then_answer(reader, writer, index):
            if index == 0:
                await request_of(reader)
                stalled.set()
                return  # never answers
            while line := await reader.readline():
                asked.append(line.split()[1].decode())
                writer.write(b"END\r\n")

        async def scenario():
            async with ScriptedServer(stall_then_answer) as server:
                client = server.client(pool_size=1)
                queued: dict[str, asyncio.Future] = {}

                async def in_flight():
                    try:
                        await client.get("a")
                    finally:
                        if woken_then_cancelled:
                            # "b" was handed the slot in this very step
                            # and has not run yet: it must pass it on.
                            queued["b"].cancel()

                first = asyncio.ensure_future(in_flight())
                await stalled.wait()
                names = ["b", "c", "d", "e"] if woken_then_cancelled else [
                    "b", "c", "d"
                ]
                for name in names:
                    queued[name] = asyncio.ensure_future(client.get(name))
                await asyncio.sleep(0)  # all queued, in this order
                queued["c"].cancel()
                first.cancel()
                cancelled = {"b", "c"} if woken_then_cancelled else {"c"}
                served = [name for name in names if name not in cancelled]
                for name in names:
                    if name in cancelled:
                        with pytest.raises(asyncio.CancelledError):
                            await queued[name]
                    else:
                        assert await asyncio.wait_for(queued[name], 5.0) is None
                with pytest.raises(asyncio.CancelledError):
                    await first
                assert asked == served
                # Exactly one usable slot: two callers at once get
                # answered, one after the other on the same connection.
                both = asyncio.gather(client.get("x"), client.get("y"))
                assert await asyncio.wait_for(both, 5.0) == [None, None]
                assert server.connections == 2
                assert asked == served + ["x", "y"]
                await client.close()

        on_loop(scenario())

    def test_slot_count_survives_a_cancellation_storm(self, on_loop):
        """200 callers on two slots, cancelled at random points: queued,
        just woken, dialling or in flight.  Every caller left standing is
        answered and the pool ends with both slots free."""
        rng = random.Random(0)

        async def scenario():
            async with ScriptedServer(answer_gets) as server:
                client = server.client(pool_size=2)
                callers = [
                    asyncio.ensure_future(client.get(f"k{i}")) for i in range(200)
                ]
                while live := [caller for caller in callers if not caller.done()]:
                    await asyncio.sleep(0)
                    rng.choice(live).cancel()
                results = await asyncio.gather(*callers, return_exceptions=True)
                assert all(
                    result is None or isinstance(result, asyncio.CancelledError)
                    for result in results
                )
                assert any(result is None for result in results)
                assert client._busy == 0
                assert all(waiter.done() for waiter in client._waiters)
                both = asyncio.gather(client.get("x"), client.get("y"))
                assert await asyncio.wait_for(both, 5.0) == [None, None]
                await client.close()

        on_loop(scenario())

    def test_close_waits_until_every_transport_let_go(self, on_loop):
        async def scenario():
            gc.collect()  # other tests' garbage is not this one's business
            async with ScriptedServer(answer_gets) as server:
                client = server.client(pool_size=3)
                await asyncio.gather(*(client.get("k") for _ in range(3)))
                assert server.connections == 3
                await client.close()
                # Closed means closed: nothing left for the collector to
                # warn about, and the server saw all three hang up.
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", ResourceWarning)
                    gc.collect()
                assert not caught, [str(warning.message) for warning in caught]
                for _ in range(100):
                    if len(server.hung_up) == 3:
                        break
                    await asyncio.sleep(0.01)
                assert sorted(server.hung_up) == [0, 1, 2]

        on_loop(scenario())


class TestRequestsLargerThanTheWriteBuffer:
    """``transport.write`` without ``drain``: a request far above the
    transport's high-water mark (64 KiB) still goes out whole, while the
    connection keeps reading."""

    @pytest.mark.parametrize(
        ("records", "value_bytes", "mode"),
        [(1024, 300, "merge"), (4096, 1024, "prepend")],
        ids=["300KB", "4MB"],
    )
    def test_batch_import_completes(self, records, value_bytes, mode):
        batch = [
            MigratedItem(f"key-{i:05d}", (i % 7, bytes([i % 251]) * value_bytes),
                         value_bytes, float(records - i))
            for i in range(records)
        ]
        with LiveClusterHarness(["n0"], 16 * PAGE_SIZE, drain_grace_s=0.2) as harness:
            with EventLoopThread(name="test-big-import") as loop:
                client = NodeClient("n0", *harness.endpoints["n0"], pool_size=1)
                assert loop.call(client.batch_import(batch, mode=mode)) == records
                exported = loop.call(client.mig_export(b.key for b in batch))
                assert [(e.key, e.value) for e in exported] == [
                    (b.key, b.value) for b in batch
                ]
                loop.call(client.close())

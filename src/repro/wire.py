"""The one wire codec: ElMem's Memcached text dialect, stated once.

Node, proxy and client all speak the classic text protocol extended
with the paper's migration commands (Section V-A1: ``ts_dump``,
``batch_import``; here also ``mig_export``, ``trace``, ``stats obs``).
This module is the single place the dialect is written down, sans-IO:

- :data:`COMMANDS` -- the command table: per verb the argument-count
  window, the request body rule, the reply framing and whether the proxy
  routes it.  :data:`BLOCKS` gives each ``END``-terminated reply framing
  its header token and the index of its payload-size token;
- :class:`RequestFramer` -- the incremental request parser both
  listeners feed socket chunks into.  It owns line splitting, arity,
  key- and line-length checks, storage payloads, the ``batch_import`` /
  ``mig_export`` continuation state machines and the one-shot ``trace``
  frame, and hands back complete requests or the error line to answer;
- the encoders -- :func:`encode_request` for the client (validated
  against the table) and the reply blocks for the servers;
- :class:`ReplyFramer` -- the incremental reply parser the client feeds
  socket chunks into: one resumable parser per reply framing
  (:data:`REPLY_PARSERS`), run in order over the replies of a pipelined
  round trip.

``exptime`` is relative seconds, ``noreply`` is accepted but answered,
and key length is counted in characters; DESIGN.md ("Wire codec") lists
every deviation from memcached's documented protocol.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Generator, Iterable, Mapping, NamedTuple, Sequence

from repro.errors import WireProtocolError
from repro.memcached.node import MigratedItem
from repro.obs.trace import TraceContext, parse_trace_args

CRLF = b"\r\n"
END = b"END" + CRLF
MAX_KEY_LENGTH = 250

GET_BATCH_KEYS = 64
"""Keys per multi-key ``get`` command inside a pipelined ``get_many``."""

EXPORT_BATCH_KEYS = 512
"""Keys per ``mig_export`` command inside a pipelined export."""

IMPORT_BATCH_RECORDS = 1024
"""Records per ``batch_import`` command inside a pipelined import."""

MAX_LINE = len("gets") + GET_BATCH_KEYS * (MAX_KEY_LENGTH + 1)
"""Longest accepted line in bytes, CRLF excluded: the longest line
:class:`~repro.net.client.NodeClient` emits (a full multi-key ``gets``
of maximum-length keys)."""

IMPORT_MODES = frozenset({"merge", "prepend", "fresh"})

ERROR = b"ERROR" + CRLF
BAD_FORMAT = b"CLIENT_ERROR bad command line format" + CRLF
BAD_CHUNK = b"CLIENT_ERROR bad data chunk" + CRLF
BAD_DELTA = b"CLIENT_ERROR invalid numeric delta argument" + CRLF
BAD_TRACE = b"CLIENT_ERROR bad trace frame" + CRLF
BAD_ITEM_HEADER = b"CLIENT_ERROR bad item header" + CRLF
BAD_EXPORT_KEY = b"CLIENT_ERROR bad export key" + CRLF
UNKNOWN_MODE = b"CLIENT_ERROR unknown import mode" + CRLF
KEY_TOO_LONG = b"CLIENT_ERROR key too long" + CRLF
LINE_TOO_LONG = b"CLIENT_ERROR line too long" + CRLF

ERROR_PREFIXES = (b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")
"""What a reply line starts with when the server rejected the request."""

# Request body rules.
PAYLOAD = "payload"  # <size> bytes + CRLF after the command line
ITEM_BLOCKS = "item blocks"  # <count> x (header line, sized payload)
KEY_LINES = "key lines"  # <count> key lines

# Reply framings.
LINE = "line"
VALUES = "values"
TS = "ts"
ITEMS = "items"
STATS = "stats"
NONE = "none"  # consumed by the framer; nothing is answered
SNIFFED = "sniffed"  # a raw command's reply, framing learnt from its first token


ANY = 1 << 30  # open upper end of an argument-count window


class Command(NamedTuple):
    """One row of the command table (arguments exclude the verb)."""

    min_args: int
    max_args: int
    body: str = ""
    body_at: int = 0  # index of the size (PAYLOAD) or count argument
    reply: str = LINE
    proxied: bool = False  # ProxyServer routes it to a backend
    arity_error: bytes = BAD_FORMAT
    reply_by_arg: Mapping[str, str] = {}  # first argument -> other framing

    def reply_for(self, args: Sequence[str]) -> str:
        """Reply framing of this command invoked with ``args``."""
        if args and self.reply_by_arg:
            return self.reply_by_arg.get(args[0], self.reply)
        return self.reply


_RETRIEVAL = Command(1, ANY, reply=VALUES, proxied=True, arity_error=ERROR)
_STORAGE = Command(4, 5, PAYLOAD, 3)  # <key> <flags> <exptime> <bytes> [noreply]
_ANY_ARGS = Command(0, ANY)

COMMANDS: dict[str, Command] = {
    "get": _RETRIEVAL,
    "gets": _RETRIEVAL,
    "set": _STORAGE._replace(proxied=True),
    "add": _STORAGE,
    "replace": _STORAGE,
    "append": _STORAGE,
    "prepend": _STORAGE,
    "cas": Command(5, 6, PAYLOAD, 3),  # ... <bytes> <cas unique> [noreply]
    "delete": Command(1, 1, proxied=True),
    "incr": Command(2, 2, proxied=True),
    "decr": Command(2, 2, proxied=True),
    "touch": Command(2, 2),
    "flush_all": _ANY_ARGS,
    "version": _ANY_ARGS,
    "stats": Command(0, ANY, reply=STATS, reply_by_arg={"obs": VALUES}),
    "ts_dump": Command(1, 1, reply=TS),
    "batch_import": Command(2, 2, ITEM_BLOCKS, 1),  # <mode> <count>
    "mig_export": Command(1, 1, KEY_LINES, 0, reply=ITEMS),  # <count>
    "trace": Command(2, 2, reply=NONE, arity_error=BAD_TRACE),
    "quit": Command(0, ANY, reply=NONE),
}


class Block(NamedTuple):
    """Header shape of one ``END``-terminated reply framing."""

    token: bytes
    width: int  # tokens on a header line (``VALUE`` may add a cas id)
    size_at: int | None  # index of the payload-size token, if any


BLOCKS: dict[str, Block] = {
    VALUES: Block(b"VALUE", 4, 3),  # VALUE <key> <flags> <bytes> [<cas>]
    TS: Block(b"TS", 3, 2),  # TS <rows> <bytes>, one packed payload
    ITEMS: Block(b"ITEM", 5, 4),  # ITEM <key> <flags> <last_access> <bytes>
    STATS: Block(b"STAT", 3, None),  # STAT <name> <value>
}


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def flags_and_payload(value: object) -> tuple[int, bytes]:
    """Serialize a cached value as ``(flags, payload)`` for the wire.

    Values stored through the protocol are always ``(flags, payload)``
    tuples; values planted directly on a node by simulation code are
    coerced via ``str`` so an export never crashes the connection.
    """
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[1], (bytes, bytearray))
    ):
        flags = value[0] if isinstance(value[0], int) else 0
        return flags, bytes(value[1])
    if isinstance(value, (bytes, bytearray)):
        return 0, bytes(value)
    return 0, str(value).encode("utf-8")


def encode_line(text: str, payload: bytes | None = None) -> bytes:
    """One raw command line, plus a sized payload when given."""
    if payload is None:
        return text.encode("utf-8") + CRLF
    return text.encode("utf-8") + CRLF + payload + CRLF


def encode_request(verb: str, args: Sequence[str], body: Any = None) -> bytes:
    """The bytes of one request, validated against :data:`COMMANDS`.

    ``args`` are the already-spelled arguments, without the size/count
    argument of a command with a body: that one is derived from ``body``
    (payload bytes, key list or record list) so the two cannot disagree.
    """
    command = COMMANDS[verb]
    kind = command.body
    if kind:
        at = command.body_at
        args = (*args[:at], str(len(body)), *args[at:])
    if not command.min_args <= len(args) <= command.max_args:
        raise WireProtocolError(
            f"{verb}: cannot take {len(args)} argument(s)"
        )
    line = " ".join((verb, *args)).encode("utf-8") + CRLF
    if not kind:
        return line
    if kind == PAYLOAD:
        return line + body + CRLF
    if kind == KEY_LINES:
        return line + b"".join(key.encode("utf-8") + CRLF for key in body)
    return line + b"".join(map(_import_record, body))


def _import_record(record: MigratedItem) -> bytes:
    flags, payload = flags_and_payload(record.value)
    return encode_line(
        f"{record.key} {record.last_access} {len(payload)} {flags}", payload
    )


def value_block(
    key: str, flags: int, payload: bytes, cas: int | None = None
) -> bytes:
    """One ``VALUE`` header plus payload (``gets`` adds the cas id)."""
    if cas is None:
        return b"VALUE %b %d %d\r\n%b\r\n" % (
            key.encode("utf-8"), flags, len(payload), payload
        )
    return b"VALUE %b %d %d %d\r\n%b\r\n" % (
        key.encode("utf-8"), flags, len(payload), cas, payload
    )


def item_block(record: MigratedItem) -> bytes:
    """One ``ITEM`` header plus payload of a ``mig_export`` reply."""
    flags, payload = flags_and_payload(record.value)
    return encode_line(
        f"ITEM {record.key} {flags} {record.last_access} {len(payload)}",
        payload,
    )


def ts_reply(
    keys: Sequence[str], stamps: Sequence[float], sizes: Sequence[int]
) -> bytes:
    """A whole ``ts_dump`` reply: one ``TS <rows> <bytes>`` block, then
    ``END``.  The payload packs the rows column by column: ``rows``
    little-endian float64 stamps, ``rows`` little-endian int64 sizes,
    then the keys in UTF-8 joined by single spaces (a wire key holds
    none)."""
    rows = len(keys)
    payload = struct.pack(f"<{rows}d{rows}q", *stamps, *sizes) + " ".join(
        keys
    ).encode("utf-8")
    return b"TS %d %d\r\n%b\r\n" % (rows, len(payload), payload) + END


def stats_reply(rows: Iterable[tuple[str, object]]) -> bytes:
    """A whole ``stats`` reply: one ``STAT`` line per row, then ``END``."""
    return (
        b"".join(
            f"STAT {name} {value}".encode("utf-8") + CRLF
            for name, value in rows
        )
        + END
    )


def obs_reply(page: str) -> bytes:
    """A whole ``stats obs`` reply: the Prometheus page as one value.

    The page rides in standard ``VALUE`` framing so any client that can
    read a ``get`` reply can scrape it.
    """
    return value_block("obs", 0, page.encode("utf-8")) + END


# ---------------------------------------------------------------------------
# Request framer
# ---------------------------------------------------------------------------

Request = tuple[str | None, list[str], Any, TraceContext | None]
"""``(verb, args, body, trace_ctx)``; a rejected request has verb
``None`` and the error line to answer as its body."""


def _reject(line: bytes) -> Request:
    return None, [], line, None


class RequestFramer:
    """Incremental request parser shared by both listeners.

    :meth:`feed` accepts arbitrary byte chunks and returns the requests
    they complete, holding partial lines and partial bodies until more
    bytes arrive.  ``body`` is ``None``, the payload bytes, the list of
    :class:`~repro.memcached.node.MigratedItem` records of a
    ``batch_import`` or the key list of a ``mig_export``.  A ``trace``
    frame attaches its context to the next request only.  After an
    over-long line or ``quit`` the framer is :attr:`closed`: the
    listener answers what was returned and drops the connection.
    """

    __slots__ = (
        "closed", "_buf", "_trace", "_head", "_kind", "_need", "_left",
        "_rows", "_item",
    )

    def __init__(self) -> None:
        self.closed = False
        self._buf = b""
        # Context announced by a `trace` frame, consumed by the next line.
        self._trace: TraceContext | None = None
        # (verb, args, ctx) and body rule of the command whose body is
        # being read; the rule is "" between commands.
        self._head: tuple[str, list[str], TraceContext | None] = ("", [], None)
        self._kind = ""
        self._need = -1  # payload bytes awaited; -1 when reading a line
        self._left = 0  # key lines / item blocks still to start
        self._rows: list[Any] = []  # keys or records read so far
        # (key, last_access, flags) of the item whose payload is awaited.
        self._item: tuple[str, float, int] = ("", 0.0, 0)

    def feed(self, data: bytes) -> list[Request]:
        """Consume ``data``; return the requests it completes, in order."""
        out: list[Request] = []
        if self.closed:
            return out
        buf = self._buf + data if self._buf else data
        pos = 0
        while True:
            if self._need >= 0:
                end = pos + self._need
                if len(buf) < end + 2:
                    break
                payload = buf[pos:end]
                pos = end + 2
                self._need = -1
                if buf[end:pos] != CRLF:
                    self._kind = ""
                    out.append(_reject(BAD_CHUNK))
                elif self._kind == PAYLOAD:
                    self._kind = ""
                    verb, args, ctx = self._head
                    out.append((verb, args, payload, ctx))
                else:
                    self._item_payload(payload, out)
                continue
            end = buf.find(CRLF, pos)
            if end < 0:
                # A lone CR of a split CRLF may still be pending.
                if len(buf) - pos > MAX_LINE + 1:
                    self._too_long(out)
                break
            if end - pos > MAX_LINE:
                self._too_long(out)
                break
            line = buf[pos:end].decode("utf-8", "replace")
            pos = end + 2
            if self._kind:
                if self._kind == KEY_LINES:
                    self._key_line(line, out)
                else:
                    self._item_header(line, out)
                continue
            args = line.split()
            # The context announced by a preceding `trace` frame applies
            # to exactly one line, whatever that line turns out to be.
            ctx, self._trace = self._trace, None
            if not args:
                out.append(_reject(ERROR))
                continue
            verb = args.pop(0).lower()
            command = COMMANDS.get(verb)
            if command is None:
                out.append(_reject(ERROR))
            elif not command.min_args <= len(args) <= command.max_args:
                out.append(_reject(command.arity_error))
            elif command.body:
                self._open_body(verb, args, ctx, command, out)
            elif command.reply != NONE:
                out.append((verb, args, None, ctx))
            elif verb == "quit":
                self.closed = True
                break
            else:
                self._trace = parse_trace_args(args)
                if self._trace is None:
                    out.append(_reject(BAD_TRACE))
        self._buf = b"" if self.closed else buf[pos:]
        return out

    def _too_long(self, out: list[Request]) -> None:
        out.append(_reject(LINE_TOO_LONG))
        self.closed = True

    def _finish_rows(self, out: list[Request]) -> None:
        verb, args, ctx = self._head
        rows, self._rows = self._rows, []  # an idle connection keeps no batch
        self._kind = ""
        out.append((verb, args, rows, ctx))

    def _open_body(
        self,
        verb: str,
        args: list[str],
        ctx: TraceContext | None,
        command: Command,
        out: list[Request],
    ) -> None:
        """Start reading the body a storage/import/export line announces."""
        kind = command.body
        if kind == ITEM_BLOCKS and args[0] not in IMPORT_MODES:
            out.append(_reject(UNKNOWN_MODE))
            return
        try:
            size = int(args[command.body_at])
        except ValueError:
            out.append(_reject(BAD_FORMAT))
            return
        if kind == PAYLOAD:
            if size < 0:
                out.append(_reject(BAD_CHUNK))
                return
            if len(args[0]) > MAX_KEY_LENGTH:
                out.append(_reject(KEY_TOO_LONG))
                return
            self._need = size
        elif size < 0:
            out.append(_reject(BAD_FORMAT))
            return
        elif size == 0:
            out.append((verb, args, [], ctx))
            return
        else:
            self._left = size
            self._rows = []
        self._head = (verb, args, ctx)
        self._kind = kind

    def _item_payload(self, payload: bytes, out: list[Request]) -> None:
        key, last_access, flags = self._item
        self._rows.append(
            MigratedItem(
                key=key,
                value=(flags, payload),
                value_size=len(payload),
                last_access=last_access,
            )
        )
        if self._left == 0:
            self._finish_rows(out)

    def _item_header(self, line: str, out: list[Request]) -> None:
        """One ``<key> <last_access> <size> [flags]`` import header."""
        parts = line.split()
        try:
            if len(parts) not in (3, 4) or len(parts[0]) > MAX_KEY_LENGTH:
                raise ValueError(line)
            last_access = float(parts[1])
            size = int(parts[2])
            flags = int(parts[3]) if len(parts) == 4 else 0
            if size < 0:
                raise ValueError(line)
        except ValueError:
            self._kind = ""
            out.append(_reject(BAD_ITEM_HEADER))
            return
        self._left -= 1
        self._item = (parts[0], last_access, flags)
        self._need = size

    def _key_line(self, line: str, out: list[Request]) -> None:
        """One requested key of an in-flight ``mig_export``."""
        key = line.strip()
        if not key or " " in key or len(key) > MAX_KEY_LENGTH:
            self._kind = ""
            out.append(_reject(BAD_EXPORT_KEY))
            return
        self._rows.append(key)
        self._left -= 1
        if self._left == 0:
            self._finish_rows(out)


# ---------------------------------------------------------------------------
# Reply parsers and framer
# ---------------------------------------------------------------------------

ReplyParser = Generator[int | None, bytes, Any]
"""One reply being parsed.  It yields what it needs next -- :data:`_LINE`
for a line (sent back without its CRLF) or the size of a payload (sent
back without its trailer) -- and returns the decoded reply.  Suspended
between yields it keeps its rows and its place, so a reply is scanned
once however it is chunked."""

_LINE = None


def _parse_line() -> ReplyParser:
    """A single reply line; protocol errors raise."""
    line = yield _LINE
    if line.startswith(ERROR_PREFIXES):
        raise WireProtocolError(line.decode("utf-8", "replace"))
    return line


def _unexpected(line: bytes, what: str) -> WireProtocolError:
    """The error for a line that is neither a row of its block nor
    ``END``: the server's own words when it is an error line."""
    if line.startswith(ERROR_PREFIXES):
        return WireProtocolError(line.decode("utf-8", "replace"))
    return WireProtocolError(f"unexpected {what}: {line!r}")


def _parse_values() -> ReplyParser:
    """Value blocks until ``END`` -> ``{key: (flags, payload)}``."""
    token, width, size_at = BLOCKS[VALUES]
    values: dict[str, tuple[int, bytes]] = {}
    while True:
        line = yield _LINE
        if line == b"END":
            return values
        parts = line.split()
        if len(parts) < width or parts[0] != token:
            raise _unexpected(line, "line in value block")
        key, flags = parts[1].decode("utf-8"), int(parts[2])
        values[key] = (flags, (yield int(parts[size_at])))


def _parse_ts() -> ReplyParser:
    """One packed ``TS`` block and ``END`` ->
    ``[(key, last_access, size)]`` (see :func:`ts_reply`)."""
    token, width, size_at = BLOCKS[TS]
    line = yield _LINE
    parts = line.split()
    if len(parts) != width or parts[0] != token:
        raise _unexpected(line, "ts_dump header")
    rows = int(parts[1])
    payload = yield int(parts[size_at])
    line = yield _LINE
    if line != b"END":
        raise _unexpected(line, "line after the ts_dump block")
    fixed = 16 * rows
    keys: list[str] = []
    if rows > 0 and len(payload) > fixed:
        try:
            keys = payload[fixed:].decode("utf-8").split(" ")
        except UnicodeDecodeError as exc:
            raise WireProtocolError(f"ts_dump keys are not UTF-8: {exc}") from exc
    if len(keys) != rows or "" in keys or (rows == 0 and payload):
        raise WireProtocolError(
            f"ts_dump block of {len(payload)} bytes does not hold {rows} rows"
        )
    columns = struct.unpack_from(f"<{rows}d{rows}q", payload)
    return list(zip(keys, columns[:rows], columns[rows:]))


def _parse_items() -> ReplyParser:
    """Item blocks until ``END`` -> migrated KV records."""
    token, width, size_at = BLOCKS[ITEMS]
    records: list[MigratedItem] = []
    while True:
        line = yield _LINE
        if line == b"END":
            return records
        parts = line.split()
        if len(parts) != width or parts[0] != token:
            raise _unexpected(line, "export line")
        key, flags = parts[1].decode("utf-8"), int(parts[2])
        last_access, size = float(parts[3]), int(parts[size_at])
        records.append(
            MigratedItem(
                key=key,
                value=(flags, (yield size)),
                value_size=size,
                last_access=last_access,
            )
        )


def _parse_stats() -> ReplyParser:
    """Stat rows until ``END`` -> ``{name: value}``."""
    token, width, _ = BLOCKS[STATS]
    stats: dict[str, str] = {}
    while True:
        line = yield _LINE
        if line == b"END":
            return stats
        parts = line.split(None, width - 1)
        if len(parts) != width or parts[0] != token:
            raise _unexpected(line, "stats line")
        stats[parts[1].decode("utf-8")] = parts[2].decode("utf-8")


_SIZE_AT = {block.token: block.size_at for block in BLOCKS.values()}


def _parse_sniffed() -> ReplyParser:
    """A raw command's reply, verbatim (error lines included): a single
    line, or -- when its first token opens one -- an ``END``-terminated
    block whose payload sizes are learnt from :data:`BLOCKS`."""
    line = yield _LINE
    chunks = [line, CRLF]
    if line.split(b" ", 1)[0] in _SIZE_AT:
        while line != b"END":
            size_at = _SIZE_AT.get(line.split(b" ", 1)[0])
            if size_at is not None:
                parts = line.split()
                if len(parts) <= size_at:
                    raise WireProtocolError(f"short block header: {line!r}")
                chunks += ((yield int(parts[size_at])), CRLF)
            line = yield _LINE
            chunks += (line, CRLF)
    return b"".join(chunks)


REPLY_PARSERS: dict[str, Callable[[], ReplyParser]] = {
    LINE: _parse_line,
    VALUES: _parse_values,
    TS: _parse_ts,
    ITEMS: _parse_items,
    STATS: _parse_stats,
    SNIFFED: _parse_sniffed,
}
"""Reply framing -> its parser: every framing of :data:`COMMANDS`, plus
:data:`SNIFFED` for commands sent outside the table."""


class ReplyFramer:
    """Incremental reply parser: the client-side mirror of
    :class:`RequestFramer`.

    :meth:`expect` announces the reply framings of one pipelined round
    trip; :meth:`feed` accepts arbitrary byte chunks, runs each reply's
    parser in turn and returns the decoded replies once the last one is
    complete; bytes behind it stay in :attr:`unread`.  A rejected
    (``ERROR``/``CLIENT_ERROR``/``SERVER_ERROR``) or malformed reply
    raises :class:`~repro.errors.WireProtocolError` with :attr:`results`
    holding the replies decoded before it; the stream is out of step
    from there on, so the framer -- like its connection -- is not used
    again.
    """

    __slots__ = (
        "results", "unread", "_framings", "_parser", "_need", "_searched",
        "_pieces", "_short",
    )

    def __init__(self) -> None:
        self.results: list[Any] = []
        # Bytes received but not consumed: the tail of a partial reply,
        # or -- after the last reply -- bytes nobody asked for.
        self.unread = b""
        self._framings: Sequence[str] = ()
        self._parser: ReplyParser | None = None
        self._need: int | None = _LINE  # what the running parser asked for
        self._searched = 0  # leading bytes of `unread` known to hold no CRLF
        # Chunks fed since `unread` while the awaited payload is still
        # `_short` bytes short: joined once it is complete, not per chunk.
        self._pieces: list[bytes] = []
        self._short = 0

    def expect(self, framings: Sequence[str]) -> None:
        """Start a round trip whose replies arrive framed as ``framings``."""
        self.results = []
        self._framings = framings
        self._parser, self._need = self._next_reply()

    def _next_reply(self) -> tuple[ReplyParser | None, int | None]:
        """The parser of the first reply not decoded yet, run up to its
        first need; ``(None, None)`` when the round trip is complete."""
        at = len(self.results)
        if at == len(self._framings):
            return None, None
        parser = REPLY_PARSERS[self._framings[at]]()
        return parser, next(parser)

    def feed(self, data: bytes) -> list[Any] | None:
        """Consume ``data``; the round trip's replies once all are in.

        Only meaningful while a round trip is outstanding: fed after its
        last reply, bytes just pile up in :attr:`unread`.
        """
        if self._short > 0:
            self._pieces.append(data)
            self._short -= len(data)
            if self._short > 0:
                return None
            data = b"".join(self._pieces)
            self._pieces = []
        buf = self.unread + data if self.unread else data
        parser, need = self._parser, self._need
        pos, search = 0, self._searched
        try:
            while parser is not None:
                if need is None:
                    end = buf.find(CRLF, search)
                    if end < 0:
                        if len(buf) - pos > MAX_LINE + 1:
                            raise WireProtocolError("reply line too long")
                        # A lone CR of a split CRLF may still be pending.
                        search = max(pos, len(buf) - 1)
                        break
                else:
                    if need < 0:
                        raise WireProtocolError(f"payload size {need}")
                    end = pos + need
                    if len(buf) < end + 2:
                        break
                    if buf[end : end + 2] != CRLF:
                        raise WireProtocolError("missing CRLF after payload")
                try:
                    need = parser.send(buf[pos:end])
                except StopIteration as reply:
                    self.results.append(reply.value)
                    parser, need = self._next_reply()
                pos = search = end + 2
        except ValueError as exc:  # a size, flag or timestamp that is no number
            raise WireProtocolError(f"malformed reply: {exc}") from exc
        self.unread = buf[pos:]
        self._parser, self._need, self._searched = parser, need, search - pos
        if parser is not None and need is not None:
            self._short = need + 2 - len(self.unread)
        return self.results if parser is None else None

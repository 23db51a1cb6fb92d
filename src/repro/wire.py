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
  key- and line-length checks, the one sized body every body-carrying
  command has (a ``set`` value, a ``batch_import`` block, the keys of a
  ``mig_export``) and the one-shot ``trace`` frame, and hands back
  complete requests or the error line to answer;
- the encoders -- :func:`encode_request` for the client (validated
  against the table) and the reply blocks for the servers;
- the packed block -- :func:`pack_block` and :func:`read_block`: the
  one column layout of all migration data (a ``ts_dump`` reply, a
  ``batch_import`` body, a ``mig_export`` reply);
- :class:`ReplyFramer` -- the incremental reply parser the client feeds
  socket chunks into: one resumable parser per reply framing
  (:data:`REPLY_PARSERS`), run in order over the replies of a pipelined
  round trip.

``exptime`` is relative seconds, ``noreply`` is accepted but answered,
and key length is counted in characters; DESIGN.md ("Wire codec") lists
every deviation from memcached's documented protocol.
"""

from __future__ import annotations

import re
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
BAD_BLOCK = b"CLIENT_ERROR bad data block" + CRLF
UNKNOWN_MODE = b"CLIENT_ERROR unknown import mode" + CRLF
KEY_TOO_LONG = b"CLIENT_ERROR key too long" + CRLF
LINE_TOO_LONG = b"CLIENT_ERROR line too long" + CRLF

ERROR_PREFIXES = (b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")
"""What a reply line starts with when the server rejected the request."""

# The one request body rule.
PAYLOAD = "payload"  # <size> bytes + CRLF after the command line

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
    body_at: int = 0  # index of the payload-size argument
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
    "batch_import": Command(3, 3, PAYLOAD, 2),  # <mode> <rows> <bytes>
    "mig_export": Command(1, 1, PAYLOAD, 0, reply=ITEMS),  # <bytes>
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
    TS: Block(b"TS", 3, 2),  # TS <rows> <bytes>, one packed block
    ITEMS: Block(b"ITEMS", 3, 2),  # ITEMS <rows> <bytes>, one packed block
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


def storage_fields(args: Sequence[str]) -> tuple[int, float] | None:
    """``(flags, exptime)`` of a storage command's arguments, or ``None``
    when memcached answers :data:`BAD_FORMAT`: flags are a 32-bit
    unsigned integer, ``exptime`` a number."""
    try:
        flags, exptime = int(args[1]), float(args[2])
    except ValueError:
        return None
    return (flags, exptime) if 0 <= flags < 1 << 32 else None


def encode_request(verb: str, args: Sequence[str], body: bytes = b"") -> bytes:
    """The bytes of one request, validated against :data:`COMMANDS`.

    ``args`` are the already-spelled arguments, without the payload
    size of a command with a body: that one is derived from ``body`` so
    the two cannot disagree.
    """
    command = COMMANDS[verb]
    if command.body:
        at = command.body_at
        args = (*args[:at], str(len(body)), *args[at:])
    if not command.min_args <= len(args) <= command.max_args:
        raise WireProtocolError(
            f"{verb}: cannot take {len(args)} argument(s)"
        )
    line = " ".join((verb, *args)).encode("utf-8") + CRLF
    return line + body + CRLF if command.body else line


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


def pack_block(
    keys: Sequence[str],
    stamps: Sequence[float],
    sizes: Sequence[int],
    flags: Sequence[int] = (),
    values: Iterable[bytes] = (),
) -> bytes:
    """One packed block of migration data, column by column: ``rows``
    little-endian float64 stamps, ``rows`` int64 sizes, then -- in a
    key-value block only -- ``rows`` uint32 flags and the values
    concatenated, then the keys in UTF-8 joined by single spaces (a wire
    key holds none).  :func:`read_block` is its reader."""
    rows = len(keys)
    return (
        struct.pack(f"<{rows}d{rows}q{len(flags)}I", *stamps, *sizes, *flags)
        + b"".join(values)
        + " ".join(keys).encode("utf-8")
    )


def items_payload(records: Sequence[MigratedItem]) -> bytes:
    """The key-value block of ``records``: a ``batch_import`` body and a
    ``mig_export`` reply's payload alike, byte for byte."""
    pairs = [flags_and_payload(record.value) for record in records]
    return pack_block(
        [record.key for record in records],
        [record.last_access for record in records],
        [len(value) for _, value in pairs],
        [flags for flags, _ in pairs],
        [value for _, value in pairs],
    )


def _block_reply(token: bytes, rows: int, payload: bytes) -> bytes:
    return b"%b %d %d\r\n%b\r\n" % (token, rows, len(payload), payload) + END


def ts_reply(
    keys: Sequence[str], stamps: Sequence[float], sizes: Sequence[int]
) -> bytes:
    """A whole ``ts_dump`` reply: one ``TS <rows> <bytes>`` block of
    stamps, sizes and keys (:func:`pack_block`), then ``END``."""
    return _block_reply(b"TS", len(keys), pack_block(keys, stamps, sizes))


def items_reply(records: Sequence[MigratedItem]) -> bytes:
    """A whole ``mig_export`` reply: one ``ITEMS <rows> <bytes>``
    key-value block (:func:`items_payload`), then ``END``."""
    return _block_reply(b"ITEMS", len(records), items_payload(records))


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


class _Unread:
    """The unconsumed bytes an incremental framer keeps between feeds.
    While an awaited payload is short, chunks are collected and joined
    once it is complete: a payload fed in *n* chunks is not copied *n*
    times."""

    __slots__ = ("unread", "_need", "_pieces", "_short")

    def __init__(self) -> None:
        # Bytes received but not consumed: the tail of a partial
        # request or reply, or -- after the last reply -- bytes nobody
        # asked for.
        self.unread = b""
        self._need: int | None = None  # payload bytes awaited; None: a line
        self._pieces: list[bytes] = []  # chunks fed since `unread`
        self._short = 0  # bytes the awaited payload and its CRLF still lack

    def _gather(self, data: bytes) -> bytes | None:
        """The unconsumed bytes followed by ``data``; ``None`` while the
        awaited payload is still short."""
        if self._short > 0:
            self._pieces.append(data)
            self._short -= len(data)
            if self._short > 0:
                return None
            data = b"".join(self._pieces)
            self._pieces = []
        return self.unread + data if self.unread else data

    def _hold(self, buf: bytes, pos: int, need: int | None) -> None:
        """Keep ``buf[pos:]``; from ``pos`` on a payload of ``need``
        bytes is awaited, or a line when ``need`` is ``None``."""
        self.unread = buf[pos:]
        self._need = need
        if need is not None:
            self._short = need + 2 - len(self.unread)


class RequestFramer(_Unread):
    """Incremental request parser shared by both listeners.

    :meth:`feed` accepts arbitrary byte chunks and returns the requests
    they complete, holding partial lines and partial bodies until more
    bytes arrive.  Every body is one sized payload: ``body`` is ``None``
    or the payload bytes -- a stored value, a ``batch_import`` block
    (:func:`read_block` decodes it) or the space-joined keys of a
    ``mig_export``.  A ``trace`` frame attaches its context to the next
    request only.  After an over-long line or ``quit`` the framer is
    :attr:`closed`: the listener answers what was returned and drops the
    connection.
    """

    __slots__ = ("closed", "_trace", "_head")

    def __init__(self) -> None:
        super().__init__()
        self.closed = False
        # Context announced by a `trace` frame, consumed by the next line.
        self._trace: TraceContext | None = None
        # (verb, args, ctx) of the command whose payload is being read.
        self._head: tuple[str, list[str], TraceContext | None] = ("", [], None)

    def feed(self, data: bytes) -> list[Request]:
        """Consume ``data``; return the requests it completes, in order."""
        out: list[Request] = []
        if self.closed:
            return out
        buf = self._gather(data) if self.unread or self._short > 0 else data
        if buf is None:
            return out
        pos, need = 0, self._need
        while True:
            if need is not None:
                end = pos + need
                if len(buf) < end + 2:
                    break
                payload = buf[pos:end]
                pos = end + 2
                need = None
                if buf[end:pos] != CRLF:
                    out.append(_reject(BAD_CHUNK))
                else:
                    verb, args, ctx = self._head
                    out.append((verb, args, payload, ctx))
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
                need = self._open_body(verb, args, ctx, command, out)
            elif command.reply != NONE:
                out.append((verb, args, None, ctx))
            elif verb == "quit":
                self.closed = True
                break
            else:
                self._trace = parse_trace_args(args)
                if self._trace is None:
                    out.append(_reject(BAD_TRACE))
        self._hold(buf, len(buf) if self.closed else pos, need)
        return out

    def _too_long(self, out: list[Request]) -> None:
        out.append(_reject(LINE_TOO_LONG))
        self.closed = True

    def _open_body(
        self,
        verb: str,
        args: list[str],
        ctx: TraceContext | None,
        command: Command,
        out: list[Request],
    ) -> int | None:
        """The payload size a command line announces, or ``None`` (and
        the error line) when the line is refused before its payload."""
        try:
            size = int(args[command.body_at])
        except ValueError:
            out.append(_reject(BAD_FORMAT))
            return None
        if size < 0:
            out.append(_reject(BAD_CHUNK))
            return None
        # A storage command's key; an import mode or a size is shorter.
        if len(args[0]) > MAX_KEY_LENGTH:
            out.append(_reject(KEY_TOO_LONG))
            return None
        self._head = (verb, args, ctx)
        return size


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


class Columns(NamedTuple):
    """One packed block (:func:`pack_block`), validated and split."""

    keys: list[str]
    stamps: tuple[float, ...]
    sizes: tuple[int, ...]
    flags: tuple[int, ...]  # empty in a ``ts_dump`` block
    payload: bytes
    values_at: int  # offset of the first value in ``payload``

    def items(self) -> Iterable[MigratedItem]:
        """The records of a key-value block, each built -- its value
        copied out of the payload -- only when it is asked for."""
        at = self.values_at
        for key, stamp, size, flags in zip(
            self.keys, self.stamps, self.sizes, self.flags
        ):
            yield MigratedItem(key, (flags, self.payload[at : at + size]), size, stamp)
            at += size


_INNER_SPACE = re.compile(r"[^\S ]")  # whitespace other than the separator


def read_keys(data: bytes) -> list[str]:
    """Keys joined by single spaces: a ``mig_export`` body, or the last
    column of a packed block.  A key that is empty, over-long, not UTF-8
    or holds whitespace (no command line could name it) raises
    :class:`~repro.errors.WireProtocolError`."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireProtocolError(f"keys are not UTF-8: {exc}") from exc
    keys = text.split(" ") if text else []
    if keys and (
        "" in keys
        or max(map(len, keys)) > MAX_KEY_LENGTH
        or _INNER_SPACE.search(text)
    ):
        raise WireProtocolError("an empty, over-long or whitespace-holding key")
    return keys


def read_block(rows: int, payload: bytes, values: bool = False) -> Columns:
    """The one reader of a packed block: ``payload`` holding ``rows``
    rows, with flags and values when ``values`` is set.  A row count
    that disagrees with the byte length (values included), a negative
    size and a bad key (:func:`read_keys`) raise
    :class:`~repro.errors.WireProtocolError`."""
    flagged = rows if values else 0
    fixed = 16 * rows + 4 * flagged
    if rows < 0 or len(payload) < fixed:
        raise WireProtocolError(f"{len(payload)} bytes cannot hold {rows} rows")
    columns = struct.unpack_from(f"<{rows}d{rows}q{flagged}I", payload)
    sizes = columns[rows : 2 * rows]
    if rows and min(sizes) < 0:
        raise WireProtocolError("a negative size")
    keys = read_keys(payload[fixed + sum(sizes) if values else fixed :])
    if len(keys) != rows:
        raise WireProtocolError(f"{len(keys)} keys in a block of {rows} rows")
    return Columns(keys, columns[:rows], sizes, columns[2 * rows :], payload, fixed)


def _parse_block(framing: str) -> Generator[int | None, bytes, Columns]:
    """One packed block and ``END`` -> its columns."""
    token, width, size_at = BLOCKS[framing]
    line = yield _LINE
    parts = line.split()
    if len(parts) != width or parts[0] != token:
        raise _unexpected(line, f"{framing} header")
    rows = int(parts[1])
    payload = yield int(parts[size_at])
    line = yield _LINE
    if line != b"END":
        raise _unexpected(line, f"line after the {framing} block")
    return read_block(rows, payload, values=framing == ITEMS)


def _parse_ts() -> ReplyParser:
    """A ``ts_dump`` block -> ``[(key, last_access, size)]``."""
    block = yield from _parse_block(TS)
    return list(zip(block.keys, block.stamps, block.sizes))


def _parse_export() -> ReplyParser:
    """A ``mig_export`` block -> migrated KV records."""
    block = yield from _parse_block(ITEMS)
    return list(block.items())


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
    ITEMS: _parse_export,
    STATS: _parse_stats,
    SNIFFED: _parse_sniffed,
}
"""Reply framing -> its parser: every framing of :data:`COMMANDS`, plus
:data:`SNIFFED` for commands sent outside the table."""


class ReplyFramer(_Unread):
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

    __slots__ = ("results", "_framings", "_parser", "_searched")

    def __init__(self) -> None:
        super().__init__()
        self.results: list[Any] = []
        self._framings: Sequence[str] = ()
        self._parser: ReplyParser | None = None
        self._searched = 0  # leading bytes of `unread` known to hold no CRLF

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
        buf = self._gather(data) if self.unread or self._short > 0 else data
        if buf is None:
            return None
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
        self._hold(buf, pos, need)
        self._parser, self._searched = parser, search - pos
        return self.results if parser is None else None

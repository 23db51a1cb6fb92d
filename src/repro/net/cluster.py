"""A synchronous cluster facade over live TCP nodes.

:class:`LiveCluster` is the same
:class:`~repro.memcached.cluster.RoutedCluster` that
:class:`~repro.memcached.cluster.MemcachedCluster` is -- membership,
ketama routing, and the client operations (``get``/``set``/``delete``
plus their batched variants) -- but every node is a :class:`RemoteNode`
reached over a socket instead of an in-process
:class:`~repro.memcached.node.MemcachedNode`.  Because the surface is
one class, the existing :class:`~repro.core.master.Master` plans and
executes a real three-phase migration over TCP without knowing the
difference.

:class:`RemoteNode` duck-types the slice of the node API the Master, the
Agent, and the scoring step consume.  Metadata reads (``ts_dump`` rows,
slab geometry) are served from a cached snapshot refreshed lazily and
invalidated by mutations, so a planning pass costs a handful of round
trips per node instead of one per key; data moves (``export_items`` /
``batch_import``) always hit the wire.

One :class:`~repro.net.runtime.EventLoopThread` per cluster runs every
client's socket I/O; the facade blocks on it, which is what lets the
synchronous Master drive asyncio sockets unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, Coroutine

from repro.check.loopcheck import create_sanitizer
from repro.core.retry import RetryPolicy
from repro.errors import ConfigurationError, MembershipError, TransportError
from repro.memcached.cluster import RoutedCluster
from repro.memcached.node import MigratedItem, NodeStats
from repro.memcached.slab import PAGE_SIZE, size_class_table
from repro.net.client import NodeClient
from repro.net.runtime import EventLoopThread
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.wire import flags_and_payload


@dataclass(frozen=True)
class _RemoteItem:
    """The slice of :class:`~repro.memcached.items.Item` that planners
    read through :meth:`RemoteNode.peek`.

    ``value`` is never fetched for a peek -- migration pricing only needs
    sizes -- so it is always ``None`` here; use
    :meth:`RemoteNode.export_items` (or a routed ``get``) for payloads.
    """

    key: str
    last_access: float
    value_size: int
    value: None = None


class _RemoteSlabClass:
    """Wire-reported geometry of one slab class on a live node."""

    __slots__ = ("class_id", "chunk_size", "pages", "used_chunks", "mru_rows")

    def __init__(self, class_id: int, chunk_size: int) -> None:
        self.class_id = class_id
        self.chunk_size = chunk_size
        self.pages = 0
        self.used_chunks = 0
        # (key, last_access, value_size) rows in MRU order, from ts_dump.
        self.mru_rows: list[tuple[str, float, int]] = []

    @property
    def chunks_per_page(self) -> int:
        return PAGE_SIZE // self.chunk_size

    @property
    def total_chunks(self) -> int:
        return self.pages * self.chunks_per_page

    @property
    def free_chunks(self) -> int:
        return self.total_chunks - self.used_chunks


class _RemoteSlabs:
    """Slab allocator view reconstructed from ``stats slabs``."""

    __slots__ = ("classes", "total_pages")

    def __init__(
        self, chunk_sizes: list[int], total_pages: int
    ) -> None:
        self.classes = [
            _RemoteSlabClass(class_id, chunk_size)
            for class_id, chunk_size in enumerate(chunk_sizes)
        ]
        self.total_pages = total_pages

    @property
    def assigned_pages(self) -> int:
        return sum(slab_class.pages for slab_class in self.classes)

    @property
    def free_pages(self) -> int:
        return self.total_pages - self.assigned_pages


class RemoteNode:
    """One live node, duck-typing the Master/Agent-facing node surface.

    Reads that drive planning (`dump_timestamps`, `items_in_mru_order`,
    `median_timestamp`, `page_fractions`, `peek`, the ``slabs``
    geometry) come from a metadata snapshot -- one ``stats``, one
    ``stats slabs``, and one ``ts_dump`` per populated slab class --
    refreshed lazily after any mutation through this object.  Mutations
    and bulk data (``export_items``, ``batch_import``, ``delete``,
    ``flush_all``) always go over the wire.

    The snapshot holds each ``ts_dump`` row once: the
    ``(key, last_access, value_size)`` tuples sit in their slab class's
    ``mru_rows`` list in MRU order.  The first ``peek`` or ``contains``
    after a refresh builds a ``key -> row`` index over the same tuples;
    planning peeks only at retiring nodes, so retained nodes never
    build one.  Nothing else is materialised per key;
    ``items_in_mru_order`` builds its :class:`_RemoteItem` views on
    demand.

    The snapshot mirrors the trust model of the paper's Master, which
    also plans on a metadata dump that may drift from the live cache;
    drift is tolerated downstream (evicted keys are skipped at export).
    """

    def __init__(
        self,
        name: str,
        client: NodeClient,
        loop: EventLoopThread,
    ) -> None:
        self.name = name
        self.client = client
        self._loop = loop
        # Live nodes run slab.py's default geometry on both ends.
        self._chunk_sizes = size_class_table()
        self._snapshot: _RemoteSlabs | None = None
        # key -> its ts_dump row (the same tuple as in its class's
        # mru_rows), built by the first peek/contains after a refresh.
        self._index: dict[str, tuple[str, float, int]] | None = None
        self._memory_bytes: int | None = None
        self._curr_items = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _call(self, coro: Coroutine[Any, Any, Any]) -> Any:
        return self._loop.call(coro)

    def invalidate(self) -> None:
        """Drop the metadata snapshot; the next read refreshes it."""
        self._snapshot = None

    def refresh(self) -> _RemoteSlabs:
        """Fetch a fresh metadata snapshot from the live node."""
        stats = self._call(self.client.stats())
        self._memory_bytes = stats.get("limit_maxbytes", 0)
        self._curr_items = stats.get("curr_items", 0)
        slabs = _RemoteSlabs(
            self._chunk_sizes, self._memory_bytes // PAGE_SIZE
        )
        raw = self._call(self.client.stats_slabs())
        for name, value in raw.items():
            cid_str, _, field = name.partition(":")
            if not field:
                continue
            slab_class = slabs.classes[int(cid_str)]
            if field == "total_pages":
                slab_class.pages = value
            elif field == "used_chunks":
                slab_class.used_chunks = value
        self._index = None
        for slab_class in slabs.classes:
            if slab_class.pages == 0:
                continue
            rows = self._call(self.client.ts_dump(slab_class.class_id))
            slab_class.mru_rows = rows
        self._snapshot = slabs
        return slabs

    @property
    def slabs(self) -> _RemoteSlabs:
        """Snapshot slab geometry (lazily refreshed)."""
        if self._snapshot is None:
            return self.refresh()
        return self._snapshot

    # ------------------------------------------------------------------
    # Metadata surface consumed by Agent / scoring / pricing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        slabs = self.slabs
        return sum(len(c.mru_rows) for c in slabs.classes)

    @property
    def curr_items(self) -> int:
        return len(self)

    @property
    def memory_bytes(self) -> int:
        if self._memory_bytes is None:
            self.refresh()
        assert self._memory_bytes is not None
        return self._memory_bytes

    def active_class_ids(self) -> list[int]:
        return [
            slab_class.class_id
            for slab_class in self.slabs.classes
            if slab_class.mru_rows
        ]

    def dump_timestamps(self, class_id: int) -> list[tuple[str, float]]:
        return [
            (key, last_access)
            for key, last_access, _ in self.slabs.classes[class_id].mru_rows
        ]

    def items_in_mru_order(self, class_id: int) -> list[_RemoteItem]:
        return [
            _RemoteItem(key=key, last_access=last_access, value_size=size)
            for key, last_access, size in self.slabs.classes[
                class_id
            ].mru_rows
        ]

    def dump_metadata(self) -> dict[int, list[tuple[str, float]]]:
        return {
            class_id: self.dump_timestamps(class_id)
            for class_id in self.active_class_ids()
        }

    def median_timestamp(self, class_id: int) -> float | None:
        rows = self.slabs.classes[class_id].mru_rows
        if not rows:
            return None
        return rows[len(rows) // 2][1]

    def page_fractions(self) -> dict[int, float]:
        slabs = self.slabs
        assigned = slabs.assigned_pages
        if assigned == 0:
            return {}
        return {
            slab_class.class_id: slab_class.pages / assigned
            for slab_class in slabs.classes
            if slab_class.pages > 0
        }

    def peek(self, key: str) -> _RemoteItem | None:
        """Snapshot metadata for ``key`` (no payload, no MRU effects)."""
        row = self._row(key)
        if row is None:
            return None
        return _RemoteItem(*row)

    def contains(self, key: str) -> bool:
        return self._row(key) is not None

    def _row(self, key: str) -> tuple[str, float, int] | None:
        slabs = self.slabs  # a refresh drops the index with the snapshot
        if self._index is None:
            self._index = {
                row[0]: row for c in slabs.classes for row in c.mru_rows
            }
        return self._index.get(key)

    # ------------------------------------------------------------------
    # Wire operations
    # ------------------------------------------------------------------

    def get(self, key: str, now: float = 0.0) -> Any | None:
        """Routed ``get`` over the wire; ``now`` is accepted for
        interface parity but the server stamps its own clock."""
        return self._call(self.client.get(key))

    def get_many(
        self, keys: Iterable[str], now: float = 0.0
    ) -> list[Any | None]:
        return self._call(self.client.get_many(keys))

    def set(
        self,
        key: str,
        value: Any,
        value_size: int,
        now: float = 0.0,
        exptime: float = 0.0,
    ) -> bool:
        flags, payload = flags_and_payload(value)
        self.invalidate()
        return self._call(
            self.client.set(key, payload, flags=flags, exptime=exptime)
        )

    def set_many(
        self, entries: Iterable[tuple[str, Any, int]], now: float = 0.0
    ) -> int:
        wire_entries = []
        for key, value, _size in entries:
            flags, payload = flags_and_payload(value)
            wire_entries.append((key, flags, payload))
        self.invalidate()
        return self._call(self.client.set_many(wire_entries))

    def delete(self, key: str) -> bool:
        self.invalidate()
        return self._call(self.client.delete(key))

    def delete_many(self, keys: Iterable[str]) -> int:
        self.invalidate()
        return self._call(self.client.delete_many(keys))

    def flush_all(self) -> None:
        self.invalidate()
        self._call(self.client.flush_all())

    def export_items(self, keys: Iterable[str]) -> list[MigratedItem]:
        """Phase-3 export over the wire (``mig_export``)."""
        return self._call(self.client.mig_export(keys))

    def batch_import(
        self,
        migrated: Iterable[MigratedItem],
        mode: str = "merge",
        now: float = 0.0,
    ) -> int:
        """Phase-3 import over the wire (``batch_import``).

        ``now`` is accepted for interface parity; the live server stamps
        ``fresh``-mode imports with its own shared cluster clock.
        """
        self.invalidate()
        return self._call(self.client.batch_import(migrated, mode=mode))

    def wire_stats(self) -> dict[str, int]:
        """Raw ``stats`` counters from the live node."""
        return self._call(self.client.stats())

    def close(self) -> None:
        """Close this node's pooled connections."""
        self._call(self.client.close())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteNode({self.name!r}, "
            f"{self.client.host}:{self.client.port})"
        )


class LiveCluster(RoutedCluster[RemoteNode]):
    """A pool of :class:`RemoteNode` with ketama routing.

    Values returned by ``get`` are the wire's ``(flags, payload)``
    tuples, and ``now`` arguments are accepted but ignored: the servers
    stamp their own shared clock.

    Parameters
    ----------
    endpoints:
        ``{node_name: (host, port)}`` for every reachable live node,
        including spares that start outside the ring --
        :meth:`provision` can only attach nodes registered here, because
        a client cannot boot a remote VM.
    active:
        Names initially on the hash ring; defaults to every endpoint.
    timeout_s / retry / backoff_scale / pool_size:
        Per-node client transport settings
        (see :class:`~repro.net.client.NodeClient`).
    """

    def __init__(
        self,
        endpoints: dict[str, tuple[str, int]],
        active: Iterable[str] | None = None,
        pool_size: int = 2,
        timeout_s: float = 5.0,
        retry: RetryPolicy | None = None,
        backoff_scale: float = 1.0,
        telemetry: Telemetry | None = None,
        sanitize: bool = False,
    ) -> None:
        if not endpoints:
            raise ConfigurationError("LiveCluster needs at least one endpoint")
        self._endpoints = dict(endpoints)
        self._pool_size = pool_size
        self._timeout_s = timeout_s
        self._retry = retry
        self._backoff_scale = backoff_scale
        self._telemetry = telemetry or NULL_TELEMETRY
        self.sanitizer = create_sanitizer(sanitize)
        self.loop = EventLoopThread(
            name="live-cluster", sanitizer=self.sanitizer
        ).start()
        names = list(active) if active is not None else sorted(endpoints)
        super().__init__(self._endpoints, names)

    def _build_node(self, name: str) -> RemoteNode:
        """Connect a registered endpoint (a client cannot boot a server)."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise MembershipError(
                f"node {name!r} has no registered endpoint; a live "
                "cluster cannot boot servers, only attach to them"
            )
        host, port = endpoint
        client = NodeClient(
            name,
            host,
            port,
            pool_size=self._pool_size,
            timeout_s=self._timeout_s,
            retry=self._retry,
            backoff_scale=self._backoff_scale,
            telemetry=self._telemetry,
        )
        return RemoteNode(name, client, self.loop)

    def _release_node(self, node: RemoteNode) -> None:
        """Flush the remote node and drop the connection (the live
        analogue of turning the VM off)."""
        try:
            node.flush_all()
        except TransportError:
            pass  # a crashed node is already as flushed as it gets
        node.close()

    def aggregate_stats(self) -> NodeStats:
        """Wire counters summed over the pool, mapped onto NodeStats."""
        total = NodeStats()
        for node in self.nodes.values():
            stats = node.wire_stats()
            total.get_hits += stats.get("get_hits", 0)
            total.get_misses += stats.get("get_misses", 0)
            total.sets += stats.get("cmd_set", 0)
            total.deletes += stats.get("delete_hits", 0)
            total.evictions += stats.get("evictions", 0)
            total.expired += stats.get("expired_unfetched", 0)
        return total

    def close(self) -> None:
        """Close every client connection and the I/O loop; idempotent."""
        for node in self.nodes.values():
            try:
                node.close()
            except Exception:
                continue  # a dead node must not block teardown
        self.loop.stop()

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "LiveCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

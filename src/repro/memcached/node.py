"""A single Memcached node.

Combines the hash table, the slab allocator, and the per-class MRU lists
into the ``get``/``set``/``delete`` surface a client sees, plus the two
custom commands the paper adds for ElMem (Section V-A1):

- :meth:`MemcachedNode.dump_timestamps` -- the *timestamp dump* command that
  writes a slab's MRU timestamps (the input to FuseCache), and
- :meth:`MemcachedNode.batch_import` -- the *batch import* command that
  installs migrated KV pairs while evicting colder local items
  (:meth:`MemcachedNode.import_steps` is the same import one record per
  step, for a server that keeps serving while it imports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, TypeVar

from repro.errors import CapacityError
from repro.memcached.items import ITEM_OVERHEAD, Item
from repro.memcached.slab import PAGE_SIZE, SlabAllocator, SlabClass
from repro.obs.metrics import NULL_METRICS

_T = TypeVar("_T")


def drain(steps: Generator[None, None, _T]) -> _T:
    """Run a step generator to its end in one go; its return value."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def _first_not_hotter(item: Item | None, stamp: float) -> Item | None:
    """The first item from ``item`` on (along ``next``) whose stamp is at
    most ``stamp``; ``None`` past the tail."""
    while item is not None and item.last_access > stamp:
        item = item.next
    return item


@dataclass
class NodeStats:
    """Operation counters, mirroring the interesting parts of ``stats``."""

    get_hits: int = 0
    get_misses: int = 0
    sets: int = 0
    deletes: int = 0
    evictions: int = 0
    expired: int = 0
    too_large: int = 0
    imported: int = 0
    # Merge-import records hotter than the one before them in their
    # class, placed by a walk from the MRU head (see _insert_sorted).
    import_merge_fallbacks: int = 0

    @property
    def gets(self) -> int:
        """Total ``get`` operations served."""
        return self.get_hits + self.get_misses

    @property
    def hit_rate(self) -> float:
        """Lifetime hit rate; 0.0 when no ``get`` has been issued."""
        return self.get_hits / self.gets if self.gets else 0.0


@dataclass
class MigratedItem:
    """One KV pair in flight between nodes during migration."""

    key: str
    value: Any
    value_size: int
    last_access: float
    created_at: float = field(default=0.0)

    @property
    def transfer_bytes(self) -> int:
        """Bytes this pair contributes to a data-migration transfer."""
        return len(self.key) + self.value_size


class MemcachedNode:
    """One cache server: hash table + slab allocator + MRU lists.

    Parameters
    ----------
    name:
        Node identifier used by the hash ring and the Master.
    memory_bytes:
        Cache memory; carved into 1 MB pages by the slab allocator.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  Commands
        and evictions also bump cluster-wide counters
        (``node_commands_total{op=...}``, ``node_evictions_total``,
        ``node_items_imported_total``); the counters are resolved once
        here, so the disabled-mode hot-path cost is one no-op call.
    """

    def __init__(
        self,
        name: str,
        memory_bytes: int,
        min_chunk: int = 96,
        growth_factor: float = 1.25,
        metrics: Any | None = None,
    ) -> None:
        self.name = name
        self.memory_bytes = memory_bytes
        self.slabs = SlabAllocator(memory_bytes, min_chunk, growth_factor)
        self.stats = NodeStats()
        self._table: dict[str, Item] = {}
        self._cas_counter = 0
        # Merge import (_insert_sorted): per slab class, the record the
        # last merge insert placed, and the classes a prepend import has
        # left unsorted.
        self._merge_cursors: dict[int, Item] = {}
        self._unsorted_classes: set[int] = set()
        metrics = metrics or NULL_METRICS
        self._m_gets = metrics.counter(
            "node_commands_total", "Cache commands served", op="get"
        )
        self._m_sets = metrics.counter("node_commands_total", op="set")
        self._m_deletes = metrics.counter(
            "node_commands_total", op="delete"
        )
        self._m_evictions = metrics.counter(
            "node_evictions_total", "Items evicted to make room"
        )
        self._m_imported = metrics.counter(
            "node_items_imported_total",
            "Items installed by migration batch imports",
        )

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def get(self, key: str, now: float) -> Any | None:
        """Fetch ``key``; a hit refreshes its MRU position and timestamp.

        Returns the cached value, or ``None`` on a miss.  Expired items
        are reclaimed lazily here, as in Memcached.
        """
        self._m_gets.inc()
        item = self._live_item(key, now)
        if item is None:
            self.stats.get_misses += 1
            return None
        item.touch(now)
        self.slabs.classes[item.slab_class_id].mru.move_to_front(item)
        self.stats.get_hits += 1
        return item.value

    def gets(self, key: str, now: float) -> tuple[Any, int] | None:
        """Like :meth:`get` but also returns the CAS token."""
        value = self.get(key, now)
        if value is None:
            return None
        return value, self._table[key].cas_id

    def get_many(self, keys: Iterable[str], now: float) -> list[Any | None]:
        """Batched :meth:`get`: one value (or ``None``) per key, in order.

        Behavior-identical to calling :meth:`get` per key -- the same MRU
        moves, the same lazy expiry reclaim, the same counter totals --
        but the per-operation Python call chain (``_live_item``,
        ``touch``, per-op metric increments) is amortized across the
        batch.  The equivalence tests hold the two paths bit-identical.
        """
        table = self._table
        stats = self.stats
        mrus = [slab_class.mru for slab_class in self.slabs.classes]
        values: list[Any | None] = []
        append = values.append
        hits = 0
        misses = 0
        for key in keys:
            item = table.get(key)
            if item is None:
                misses += 1
                append(None)
                continue
            expires = item.expires_at
            if expires > 0.0 and now >= expires:
                self._unlink(item)
                stats.expired += 1
                misses += 1
                append(None)
                continue
            item.last_access = now
            # Inlined MRUList.move_to_front: splice the item out and
            # re-link it at the head (sizes cancel, so the counter is
            # untouched).  ``item.prev`` is non-None whenever the item is
            # not already the head of a well-formed list.
            mru = mrus[item.slab_class_id]
            head = mru._head
            if head is not item:
                prev = item.prev
                nxt = item.next
                prev.next = nxt
                if nxt is not None:
                    nxt.prev = prev
                else:
                    mru._tail = prev
                item.prev = None
                item.next = head
                head.prev = item
                mru._head = item
            hits += 1
            append(item.value)
        stats.get_hits += hits
        stats.get_misses += misses
        self._m_gets.inc(hits + misses)
        return values

    def set_many(
        self, entries: Iterable[tuple[str, Any, int]], now: float
    ) -> int:
        """Batched TTL-less :meth:`set` of ``(key, value, value_size)``
        triples; returns how many stored.

        Amortizes slab-class resolution (one bisect per distinct item
        size instead of one per item), CAS bookkeeping, and counter
        updates.  Eviction takes the exact per-op path, so eviction
        sequences are bit-identical to sequential ``set`` calls.
        """
        table = self._table
        stats = self.stats
        slabs = self.slabs
        stored = 0
        # total_size -> (slab class, chunks per page), resolved at most
        # once per distinct size in the batch.
        class_cache: dict[int, tuple[SlabClass, int]] = {}
        for key, value, value_size in entries:
            existing = table.get(key)
            if existing is not None:
                self._unlink(existing)
            item = Item(key, value, value_size, now)
            self._cas_counter += 1
            item.cas_id = self._cas_counter
            total = ITEM_OVERHEAD + len(key) + value_size
            entry = class_cache.get(total)
            if entry is None:
                try:
                    slab_class = slabs.class_for_size(total)
                except CapacityError:
                    stats.too_large += 1
                    continue
                entry = (slab_class, PAGE_SIZE // slab_class.chunk_size)
                class_cache[total] = entry
            slab_class, chunks_per_page = entry
            if slab_class.used_chunks < slab_class.pages * chunks_per_page:
                # Fast path: a free chunk already exists in the class.
                slab_class.used_chunks += 1
            elif self._make_room(item) is None:
                continue
            item.slab_class_id = slab_class.class_id
            # Inlined MRUList.push_front (the item is freshly built and
            # unlinked).
            mru = slab_class.mru
            head = mru._head
            item.next = head
            if head is not None:
                head.prev = item
            else:
                mru._tail = item
            mru._head = item
            mru._size += 1
            table[key] = item
            stored += 1
        stats.sets += stored
        self._m_sets.inc(stored)
        return stored

    def delete_many(self, keys: Iterable[str]) -> int:
        """Batched :meth:`delete`; returns how many keys were present."""
        table = self._table
        deleted = 0
        for key in keys:
            item = table.get(key)
            if item is None:
                continue
            self._unlink(item)
            deleted += 1
        self.stats.deletes += deleted
        self._m_deletes.inc(deleted)
        return deleted

    def contains(self, key: str) -> bool:
        """True if ``key`` is cached (no MRU side effects)."""
        return key in self._table

    def peek(self, key: str) -> Item | None:
        """Return the item record without touching MRU state."""
        return self._table.get(key)

    def set(
        self,
        key: str,
        value: Any,
        value_size: int,
        now: float,
        exptime: float = 0.0,
    ) -> bool:
        """Store ``key`` -> ``value``; evicts LRU items to make room.

        ``exptime`` > 0 sets a TTL in seconds (0 = never expires).
        Returns ``False`` (and counts ``too_large``) when the item exceeds
        the largest chunk, matching Memcached's ``SERVER_ERROR``.
        """
        existing = self._table.get(key)
        if existing is not None:
            self._unlink(existing)
        item = Item(key, value, value_size, now, exptime=exptime)
        item.cas_id = self._next_cas()
        if not self._insert(item):
            return False
        self.stats.sets += 1
        self._m_sets.inc()
        return True

    def add(
        self,
        key: str,
        value: Any,
        value_size: int,
        now: float,
        exptime: float = 0.0,
    ) -> bool:
        """Store only if ``key`` is absent (Memcached ``add``)."""
        if self._live_item(key, now) is not None:
            return False
        return self.set(key, value, value_size, now, exptime=exptime)

    def replace(
        self,
        key: str,
        value: Any,
        value_size: int,
        now: float,
        exptime: float = 0.0,
    ) -> bool:
        """Store only if ``key`` is present (Memcached ``replace``)."""
        if self._live_item(key, now) is None:
            return False
        return self.set(key, value, value_size, now, exptime=exptime)

    def append(
        self, key: str, suffix: Any, suffix_size: int, now: float
    ) -> bool:
        """Concatenate after the existing value (Memcached ``append``)."""
        return self._concat(key, suffix, suffix_size, now, after=True)

    def prepend(
        self, key: str, prefix: Any, prefix_size: int, now: float
    ) -> bool:
        """Concatenate before the existing value (Memcached ``prepend``)."""
        return self._concat(key, prefix, prefix_size, now, after=False)

    def cas(
        self,
        key: str,
        value: Any,
        value_size: int,
        cas_id: int,
        now: float,
        exptime: float = 0.0,
    ) -> str:
        """Compare-and-swap: store only if the CAS token still matches.

        Returns ``"stored"``, ``"exists"`` (token mismatch) or
        ``"not_found"`` -- the three Memcached outcomes.
        """
        item = self._live_item(key, now)
        if item is None:
            return "not_found"
        if item.cas_id != cas_id:
            return "exists"
        self.set(key, value, value_size, now, exptime=exptime)
        return "stored"

    def incr(self, key: str, delta: int, now: float) -> int | None:
        """Increment a numeric value (Memcached ``incr``); ``None`` on
        a miss, raises ``ValueError`` for non-numeric values."""
        return self._arith(key, delta, now)

    def decr(self, key: str, delta: int, now: float) -> int | None:
        """Decrement a numeric value, clamped at zero as Memcached does."""
        return self._arith(key, -delta, now)

    def touch_item(self, key: str, exptime: float, now: float) -> bool:
        """Reset a TTL without fetching (Memcached ``touch``)."""
        item = self._live_item(key, now)
        if item is None:
            return False
        item.expires_at = now + exptime if exptime > 0 else 0.0
        item.touch(now)
        self.slabs.classes[item.slab_class_id].mru.move_to_front(item)
        return True

    def crawl_expired(self, now: float) -> int:
        """Reclaim every expired item (the LRU-crawler routine ElMem's
        timestamp-dump command is built on, Section V-A1).

        Returns the number of items reclaimed.
        """
        reclaimed = 0
        for slab_class in self.slabs.classes:
            expired = [
                item for item in slab_class.mru if item.is_expired(now)
            ]
            for item in expired:
                self._unlink(item)
                self.stats.expired += 1
                reclaimed += 1
        return reclaimed

    def delete(self, key: str) -> bool:
        """Remove ``key`` if cached; returns whether it was present."""
        item = self._table.get(key)
        if item is None:
            return False
        self._unlink(item)
        self.stats.deletes += 1
        self._m_deletes.inc()
        return True

    def flush_all(self) -> None:
        """Drop every cached item (used when a node is retired/recycled)."""
        for item in list(self._table.values()):
            self._unlink(item)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    @property
    def curr_items(self) -> int:
        """Number of items currently cached."""
        return len(self._table)

    @property
    def used_bytes(self) -> int:
        """Chunk-rounded bytes in use."""
        return self.slabs.used_bytes()

    def keys(self) -> Iterable[str]:
        """Iterate over all cached keys (no MRU side effects)."""
        return self._table.keys()

    def items_in_mru_order(self, class_id: int) -> list[Item]:
        """All items of one slab class, hottest first."""
        return list(self.slabs.classes[class_id].mru)

    def active_class_ids(self) -> list[int]:
        """Ids of slab classes that currently hold at least one item."""
        return [
            slab_class.class_id
            for slab_class in self.slabs.classes
            if len(slab_class.mru) > 0
        ]

    # ------------------------------------------------------------------
    # ElMem custom commands (paper Section V-A1)
    # ------------------------------------------------------------------

    def dump_timestamps(self, class_id: int) -> list[tuple[str, float]]:
        """The paper's *timestamp dump*: ``(key, last_access)`` per item of
        one slab class, in MRU order (timestamps non-increasing)."""
        return [
            (item.key, item.last_access)
            for item in self.slabs.classes[class_id].mru
        ]

    def dump_metadata(self) -> dict[int, list[tuple[str, float]]]:
        """Timestamp dump for every non-empty slab class."""
        return {
            class_id: self.dump_timestamps(class_id)
            for class_id in self.active_class_ids()
        }

    def export_items(self, keys: Iterable[str]) -> list[MigratedItem]:
        """Read the full KV pairs for ``keys`` (phase 3 of migration).

        Unknown keys are skipped: they may have been evicted since the
        metadata dump, which the protocol tolerates.
        """
        exported: list[MigratedItem] = []
        for key in keys:
            item = self._table.get(key)
            if item is None:
                continue
            exported.append(
                MigratedItem(
                    key=item.key,
                    value=item.value,
                    value_size=item.value_size,
                    last_access=item.last_access,
                    created_at=item.created_at,
                )
            )
        return exported

    def batch_import(
        self,
        migrated: Iterable[MigratedItem],
        mode: str = "merge",
        now: float = 0.0,
    ) -> int:
        """The paper's *batch import*: install migrated pairs, evicting
        colder local items as needed.

        Modes:

        - ``"merge"`` (default): splice each pair at its timestamp
          position, preserving the invariant that the MRU list is sorted
          by ``last_access`` -- which later FuseCache invocations rely on.
        - ``"prepend"``: pairs go to the MRU head in the given order,
          keeping their original timestamps -- the paper's implementation.
        - ``"fresh"``: pairs go to the MRU head stamped with ``now``, the
          behaviour of a naive dump-and-``set`` migration tool that does
          not carry hotness metadata.  Cold imports then masquerade as
          the hottest items and push genuinely hot local data toward the
          eviction tail (the failure mode of the paper's *Naive*
          comparison).

        Returns the number of items actually imported.
        """
        return drain(self.import_steps(migrated, mode, now))

    def import_steps(
        self,
        migrated: Iterable[MigratedItem],
        mode: str = "merge",
        now: float = 0.0,
    ) -> Generator[None, None, int]:
        """:meth:`batch_import` one record at a time: yields after each
        record and returns the number imported.

        A live server runs the steps a slice at a time, so requests for
        other keys interleave with a long import.  Every record is
        applied whole before the yield that follows it, so the node is
        consistent between steps; closing the generator early keeps the
        records applied so far.
        """
        if mode not in ("merge", "prepend", "fresh"):
            raise ValueError(f"unknown import mode {mode!r}")
        count = 0
        try:
            for record in migrated:
                existing = self._table.get(record.key)
                if existing is not None:
                    self._unlink(existing)
                item = Item(record.key, record.value, record.value_size, 0.0)
                item.cas_id = self._next_cas()
                if mode == "fresh":
                    item.last_access = now
                    item.created_at = now
                else:
                    item.last_access = record.last_access
                    item.created_at = record.created_at or record.last_access
                if mode == "merge":
                    inserted = self._insert_sorted(item)
                else:
                    inserted = self._insert(item)
                    if inserted and mode == "prepend":
                        self._unsorted_classes.add(item.slab_class_id)
                if inserted:
                    count += 1
                    self.stats.imported += 1
                yield
        finally:
            self._m_imported.inc(count)
        return count

    def median_timestamp(self, class_id: int) -> float | None:
        """MRU timestamp of the median item of a slab class (Section III-C).

        Returns ``None`` for an empty class.
        """
        median_item = self.slabs.classes[class_id].mru.median()
        return None if median_item is None else median_item.last_access

    def page_fractions(self) -> dict[int, float]:
        """Per-class fraction of assigned pages (the scoring weights)."""
        return self.slabs.page_fractions()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_cas(self) -> int:
        self._cas_counter += 1
        return self._cas_counter

    def _live_item(self, key: str, now: float) -> Item | None:
        """The item if present and unexpired; reclaims lazily otherwise."""
        item = self._table.get(key)
        if item is None:
            return None
        if item.is_expired(now):
            self._unlink(item)
            self.stats.expired += 1
            return None
        return item

    def _concat(
        self, key: str, piece: Any, piece_size: int, now: float, after: bool
    ) -> bool:
        item = self._live_item(key, now)
        if item is None:
            return False
        if after:
            new_value = (item.value, piece)
        else:
            new_value = (piece, item.value)
        remaining = (
            item.expires_at - now if item.expires_at > 0 else 0.0
        )
        return self.set(
            key,
            new_value,
            item.value_size + piece_size,
            now,
            exptime=max(remaining, 0.0),
        )

    def _arith(self, key: str, delta: int, now: float) -> int | None:
        item = self._live_item(key, now)
        if item is None:
            return None
        try:
            current = int(item.value)
        except (TypeError, ValueError):
            raise ValueError(
                f"cannot increment non-numeric value for {key!r}"
            ) from None
        updated = max(0, current + delta)
        item.value = updated
        item.touch(now)
        self.slabs.classes[item.slab_class_id].mru.move_to_front(item)
        return updated

    def _insert(self, item: Item) -> bool:
        """Link ``item`` at the MRU head, evicting as needed."""
        slab_class = self._make_room(item)
        if slab_class is None:
            return False
        item.slab_class_id = slab_class.class_id
        slab_class.mru.push_front(item)
        self._table[item.key] = item
        return True

    def _insert_sorted(self, item: Item) -> bool:
        """Link ``item`` at its timestamp position in the MRU list: before
        the first item, counting from the head, that is no hotter.

        A merge import sends each class's records hottest first, so the
        walk resumes where the last merge insert into the class left off
        (its cursor).  Only client hits and sets, stamped later, can have
        been linked ahead of the cursor since.  A record hotter than the
        cursor is out of order and walks from the head
        (``import_merge_fallbacks``).  With no live cursor -- none yet,
        or it was evicted, deleted or re-set -- the walk resumes from
        the tail, so a record colder than every item appends in O(1).
        Both land exactly where the walk from the head does while the
        list is sorted by stamp.  A prepend import unsorts it, so a class
        one has touched always walks from the head.
        """
        slab_class = self._make_room(item)
        if slab_class is None:
            return False
        class_id = slab_class.class_id
        mru = slab_class.mru
        stamp = item.last_access
        cursor = self._merge_cursors.get(class_id)
        if class_id in self._unsorted_classes:
            anchor = _first_not_hotter(mru.head, stamp)
        elif cursor is None or self._table.get(cursor.key) is not cursor:
            hotter = (old for old in mru.iter_lru() if old.last_access > stamp)
            before = next(hotter, None)
            anchor = mru.head if before is None else before.next
        elif stamp <= cursor.last_access:
            anchor = _first_not_hotter(cursor, stamp)
        else:
            self.stats.import_merge_fallbacks += 1
            anchor = _first_not_hotter(mru.head, stamp)
        item.slab_class_id = class_id
        mru.insert_before(anchor, item)
        self._table[item.key] = item
        self._merge_cursors[class_id] = item
        return True

    def _make_room(self, item: Item) -> SlabClass | None:
        """Reserve a chunk for ``item``, evicting LRU tails if required."""
        try:
            slab_class = self.slabs.class_for_size(item.total_size)
        except CapacityError:
            self.stats.too_large += 1
            return None
        while not self.slabs.try_allocate(slab_class):
            victim = slab_class.mru.pop_back()
            if victim is None:
                # Class owns no page yet and no free page exists; evict via
                # another class is not done by stock Memcached, so fail.
                self.stats.too_large += 1
                return None
            del self._table[victim.key]
            self.slabs.release(slab_class)
            self.stats.evictions += 1
            self._m_evictions.inc()
        return slab_class

    def _unlink(self, item: Item) -> None:
        self.slabs.unlink_item(item)
        del self._table[item.key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemcachedNode(name={self.name!r}, items={len(self)}, "
            f"bytes={self.used_bytes}/{self.memory_bytes})"
        )

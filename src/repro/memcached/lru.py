"""Intrusive doubly-linked list in most-recently-used order.

Memcached keeps each slab class's items on such a list: a ``get`` moves the
item to the head, and eviction deletes the tail in O(1) (Section II-A).
The list is *intrusive* -- pointers live on the :class:`~repro.memcached.
items.Item` itself -- so membership moves never allocate.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.memcached.items import Item


class MRUList:
    """Doubly-linked list of items, head = most recently used."""

    def __init__(self) -> None:
        self._head: Item | None = None
        self._tail: Item | None = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    @property
    def head(self) -> Item | None:
        """The most recently used item, or ``None`` if empty."""
        return self._head

    @property
    def tail(self) -> Item | None:
        """The least recently used item, or ``None`` if empty."""
        return self._tail

    def push_front(self, item: Item) -> None:
        """Insert ``item`` at the MRU head.  ``item`` must be unlinked."""
        item.prev = None
        item.next = self._head
        if self._head is not None:
            self._head.prev = item
        self._head = item
        if self._tail is None:
            self._tail = item
        self._size += 1

    def remove(self, item: Item) -> None:
        """Unlink ``item`` from the list in O(1)."""
        if item.prev is not None:
            item.prev.next = item.next
        else:
            self._head = item.next
        if item.next is not None:
            item.next.prev = item.prev
        else:
            self._tail = item.prev
        item.prev = None
        item.next = None
        self._size -= 1

    def move_to_front(self, item: Item) -> None:
        """Move an already-linked ``item`` to the MRU head."""
        if self._head is item:
            return
        self.remove(item)
        self.push_front(item)

    def pop_back(self) -> Item | None:
        """Remove and return the LRU tail, or ``None`` if empty."""
        victim = self._tail
        if victim is not None:
            self.remove(victim)
        return victim

    def insert_before(self, anchor: Item | None, item: Item) -> None:
        """Insert unlinked ``item`` immediately before ``anchor``.

        ``anchor=None`` appends at the tail.  Used by the timestamp-ordered
        batch import to splice migrated items at the right recency position.
        """
        if anchor is None:
            item.prev = self._tail
            item.next = None
            if self._tail is not None:
                self._tail.next = item
            self._tail = item
            if self._head is None:
                self._head = item
            self._size += 1
            return
        item.prev = anchor.prev
        item.next = anchor
        if anchor.prev is not None:
            anchor.prev.next = item
        else:
            self._head = item
        anchor.prev = item
        self._size += 1

    def __iter__(self) -> Iterator[Item]:
        """Iterate items from MRU head to LRU tail."""
        node = self._head
        while node is not None:
            yield node
            node = node.next

    def iter_lru(self) -> Iterator[Item]:
        """Iterate items from LRU tail to MRU head."""
        node = self._tail
        while node is not None:
            yield node
            node = node.prev

    def median(self) -> Item | None:
        """Return the item at position ``len // 2`` in MRU order.

        ElMem's node-scoring step (Section III-C) compares exactly this
        median item's timestamp across nodes.
        """
        if self._size == 0:
            return None
        steps = self._size // 2
        node = self._head
        for _ in range(steps):
            assert node is not None
            node = node.next
        return node

    def timestamps(self) -> list[float]:
        """Dump ``last_access`` for every item in MRU order."""
        return [item.last_access for item in self]

    def check_invariants(self) -> None:
        """Validate pointer structure; used by tests and debug builds.

        Raises :class:`~repro.errors.InvariantViolation` on corruption.
        The deeper per-node validation (hash-table agreement, slab
        accounting, timestamp order) lives in
        :mod:`repro.check.invariants`.
        """
        from repro.errors import InvariantViolation

        count = 0
        prev: Item | None = None
        node = self._head
        while node is not None:
            if node.prev is not prev:
                raise InvariantViolation(
                    "lru", "mru-list", "broken prev pointer"
                )
            prev = node
            node = node.next
            count += 1
        if prev is not self._tail:
            raise InvariantViolation(
                "lru", "mru-list", "tail does not match last node"
            )
        if count != self._size:
            raise InvariantViolation(
                "lru",
                "mru-list",
                "size counter disagrees with the walk",
                diff={"size": {"expected": self._size, "actual": count}},
            )

"""The merge import's cursor lands every record where the head walk did.

:meth:`~repro.memcached.node.MemcachedNode._insert_sorted` links a
migrated record before the first item, counting from its class's MRU
head, that is no hotter than the record.  It used to find that place by
walking from the head for every record; it now resumes at the record the
last merge insert placed (the cursor), or from the tail when that record
is gone, and walks from the head only for a record hotter than the one
before it.  :class:`HeadWalkNode` keeps the old walk as the reference:
every test here drives a cursor node and a head-walk node through the
same operations and requires the same MRU order, hash table, counters
and replies.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Generator

import pytest

from repro.check.invariants import check_lru
from repro.memcached.items import Item
from repro.memcached.node import MemcachedNode, MigratedItem
from repro.memcached.protocol import TextProtocolServer
from repro.memcached.slab import PAGE_SIZE


class HeadWalkNode(MemcachedNode):
    """The merge insert as it was before the cursor: every record walks
    its class's MRU list from the head."""

    def _insert_sorted(self, item: Item) -> bool:
        slab_class = self._make_room(item)
        if slab_class is None:
            return False
        anchor = None
        for candidate in slab_class.mru:
            if candidate.last_access <= item.last_access:
                anchor = candidate
                break
        item.slab_class_id = slab_class.class_id
        slab_class.mru.insert_before(anchor, item)
        self._table[item.key] = item
        return True


def node_state(node: MemcachedNode) -> tuple:
    """MRU order per class, the hash table and the counters; the
    fallback count is the cursor's own and is compared separately."""
    return (
        [
            [
                (item.key, item.value, item.last_access, item.cas_id)
                for item in node.items_in_mru_order(class_id)
            ]
            for class_id in range(len(node.slabs.classes))
        ],
        sorted(node.keys()),
        dataclasses.replace(node.stats, import_merge_fallbacks=0),
    )


class Twins:
    """A cursor node and a head-walk node, driven in lockstep."""

    def __init__(self, memory_bytes: int) -> None:
        self.cursor = MemcachedNode("n", memory_bytes)
        self.reference = HeadWalkNode("n", memory_bytes)

    def __call__(self, op: str, *args: Any) -> Any:
        """Apply one node operation to both; their results must agree."""
        got = getattr(self.cursor, op)(*args)
        assert got == getattr(self.reference, op)(*args), (op, args)
        return got

    def steps(self, records: list[MigratedItem]) -> "Stepper":
        """A merge import of ``records`` on both, to run step by step."""
        return Stepper(
            self.cursor.import_steps(records, "merge"),
            self.reference.import_steps(records, "merge"),
        )

    def assert_same(self) -> None:
        assert node_state(self.cursor) == node_state(self.reference)
        check_lru(self.cursor, require_sorted_timestamps=False)


class Stepper:
    """Two import generators advanced one record at a time."""

    def __init__(self, *steps: Generator[None, None, int]) -> None:
        self._steps = steps
        self.done = False
        self.imported = -1

    def step(self) -> None:
        finished = []
        for steps in self._steps:
            try:
                next(steps)
                finished.append(None)
            except StopIteration as stop:
                finished.append(stop.value)
        assert finished[0] == finished[1]
        if finished[0] is not None:
            self.done, self.imported = True, finished[0]

    def drain(self) -> int:
        while not self.done:
            self.step()
        return self.imported


def records(stamps: list[float], prefix: str = "m") -> list[MigratedItem]:
    return [
        MigratedItem(f"{prefix}{i}", f"{prefix}{i}", 900, stamp)
        for i, stamp in enumerate(stamps)
    ]


# ----------------------------------------------------------------------
# Random differential
# ----------------------------------------------------------------------

SIZES = [900, 2_000, 4_500, 9_000]


def random_batch(
    rng: random.Random, clock: float, known: list[str], serial: int
) -> list[MigratedItem]:
    """Up to 512 records stamped at or before ``clock``, hottest first
    with ties (half-second grid), sometimes out of order; some re-import
    a key the node already holds."""
    count = rng.choice([1, 7, 64, 512])
    stamps = sorted(
        (round(rng.uniform(0.0, clock) * 2) / 2 for _ in range(count)),
        reverse=True,
    )
    if rng.random() < 0.3:
        for _ in range(rng.randrange(1, 6)):
            at = rng.randrange(count)
            stamps[at] = round(rng.uniform(0.0, clock) * 2) / 2
    keys: list[str] = []
    for i in range(count):
        if known and rng.random() < 0.05:
            key = rng.choice(known)
        else:
            key = f"m{serial}-{i}"
        if key not in keys:
            keys.append(key)
    return [
        MigratedItem(key, f"{key}@{stamp}", rng.choice(SIZES), stamp)
        for key, stamp in zip(keys, stamps)
    ]


def client_op(
    rng: random.Random, twins: Twins, clock: float, cursor_key: str | None,
    known: list[str],
) -> None:
    """One get, set or delete at ``clock``, often of the key the last
    merge insert placed."""
    key = cursor_key if cursor_key and rng.random() < 0.5 else rng.choice(known)
    op = rng.choice(["get", "set", "delete"])
    if op == "get":
        twins("get", key, clock)
    elif op == "set":
        twins("set", key, f"{key}@{clock}", rng.choice(SIZES), clock)
    else:
        twins("delete", key)


@pytest.mark.parametrize("seed", range(40))
def test_random_imports_land_where_the_head_walk_does(seed):
    """Random classes and sizes, tied stamps, out-of-order records,
    512-record calls, imports onto a full node (colder-than-tail records
    appended then evicted), client gets/sets/deletes of the cursor item
    between steps, and two imports interleaved step by step."""
    rng = random.Random(seed)
    twins = Twins(rng.choice([2, 3, 5]) * PAGE_SIZE)
    clock = 1_000.0
    known = []
    for i in range(rng.randrange(300, 2_500)):
        clock += rng.choice([0.0, 0.5, 1.0])
        key = f"l{i}"
        twins("set", key, key, rng.choice(SIZES), clock)
        known.append(key)
    for serial in range(rng.randrange(2, 6)):
        batch = random_batch(rng, clock, known, serial)
        known += [record.key for record in batch]
        how = rng.choice(["whole", "stepped", "interleaved"])
        if how == "whole":
            twins("batch_import", batch, "merge")
            twins.assert_same()
            continue
        imports = [twins.steps(batch)]
        if how == "interleaved":
            other = random_batch(rng, clock, known, 100 + serial)
            known += [record.key for record in other]
            imports.append(twins.steps(other))
        while not all(stepper.done for stepper in imports):
            rng.choice([s for s in imports if not s.done]).step()
            if rng.random() < 0.1:
                clock += rng.choice([0.5, 1.0])
                last = twins.cursor._merge_cursors.values()
                cursor_key = rng.choice(list(last)).key if last else None
                client_op(rng, twins, clock, cursor_key, known)
        twins.assert_same()
    assert twins.cursor.stats.imported > 0


# ----------------------------------------------------------------------
# Targeted cases
# ----------------------------------------------------------------------


def planted(twins: Twins, stamps: list[float]) -> None:
    for stamp in stamps:
        twins("set", f"l{stamp:g}", "local", 900, stamp)


def test_out_of_order_records_walk_from_the_head_and_are_counted():
    twins = Twins(4 * PAGE_SIZE)
    planted(twins, [10.0, 20.0, 30.0, 40.0])
    # 25 is placed from the tail; 35 and 38 are hotter than the record
    # before them; 15 resumes at 35's cursor.
    batch = records([25.0, 35.0, 15.0, 38.0, 12.0])
    assert twins("batch_import", batch, "merge") == 5
    twins.assert_same()
    assert twins.cursor.stats.import_merge_fallbacks == 2
    server = TextProtocolServer(twins.cursor, lambda: 100.0)
    assert b"STAT import_merge_fallbacks 2\r\n" in server.execute("stats")


def test_hottest_first_records_never_fall_back():
    twins = Twins(4 * PAGE_SIZE)
    planted(twins, [float(i) for i in range(0, 200, 3)])
    for start in (190.0, 120.0, 60.0):
        stamps = [start - i * 0.5 for i in range(100)]
        batch = records(stamps, prefix=f"b{start:g}-")
        assert twins("batch_import", batch, "merge") == 100
    twins.assert_same()
    assert twins.cursor.stats.import_merge_fallbacks == 0


@pytest.mark.parametrize("op", ["get", "set", "delete", "evict"])
def test_a_client_op_on_the_cursor_item_between_steps(op):
    """Delete, re-set and evict leave the cursor stale: the next record
    must not start its walk there.  A get moves it to the head, where a
    walk may still start."""
    # A one-page node: its 900-byte items share one class and fill it.
    twins = Twins(PAGE_SIZE)
    per_page = twins.cursor.slabs.class_for_size(956 + 3).chunks_per_page
    planted(twins, [10.0 * (i + 1) for i in range(per_page)])
    first, second = (5.0, 5.0) if op == "evict" else (55.0, 45.0)
    stepper = twins.steps(records([first, second, 42.0]))
    stepper.step()
    twins.assert_same()
    cursor_key = "m0"
    if op == "get":
        assert twins("get", cursor_key, 1e6) == cursor_key
    elif op == "set":
        assert twins("set", cursor_key, "client", 900, 1e6)
    elif op == "delete":
        assert twins("delete", cursor_key)
    else:
        # The record colder than every item was appended at the tail; a
        # set into the full class evicts it.
        assert twins.cursor.slabs.classes[
            twins.cursor.peek(cursor_key).slab_class_id
        ].mru.tail.key == cursor_key
        assert twins("set", "client", "client", 900, 1e6)
        assert not twins.cursor.contains(cursor_key)
    assert stepper.drain() == 3
    twins.assert_same()


def test_merges_after_a_prepend_import_walk_from_the_head():
    """A prepend import links old stamps at the head, so the list is no
    longer sorted and neither the cursor nor the tail can be trusted."""
    twins = Twins(4 * PAGE_SIZE)
    planted(twins, [10.0, 20.0, 30.0, 40.0])
    assert twins("batch_import", records([5.0, 35.0], prefix="p"), "prepend") == 2
    batch = records([33.0, 25.0, 8.0, 1.0])
    assert twins("batch_import", batch, "merge") == 4
    twins.assert_same()


def test_two_imports_interleaved_on_one_class():
    twins = Twins(4 * PAGE_SIZE)
    planted(twins, [float(i) for i in range(0, 400, 2)])
    left = twins.steps(records([399.5 - i for i in range(150)], prefix="a"))
    right = twins.steps(records([300.25 - 2 * i for i in range(150)], prefix="b"))
    while not (left.done and right.done):
        for stepper in (left, right):
            if not stepper.done:
                stepper.step()
    assert (left.imported, right.imported) == (150, 150)
    twins.assert_same()
    assert twins.cursor.stats.import_merge_fallbacks > 0

"""Runtime invariant validators: healthy state passes, corruption raises.

Each validator gets a healthy fixture it must accept silently, plus a
deliberately corrupted variant it must reject with
:class:`~repro.errors.InvariantViolation` carrying a structured diff --
the acceptance bar for strict mode being able to catch real accounting
bugs rather than just re-deriving tautologies.
"""

import random

import pytest

from repro.check.invariants import (
    check_lru,
    check_ring,
    check_ring_remap,
    check_slabs,
)
from repro.check.strict import StrictChecker
from repro.errors import InvariantViolation
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MemcachedNode


def make_node(items: int = 60, seed: int = 7) -> MemcachedNode:
    node = MemcachedNode("n0", 8 * (1 << 20))
    rng = random.Random(seed)
    for index in range(items):
        node.set(
            f"key-{index:04d}",
            index,
            rng.randrange(64, 900),
            float(index),
        )
    return node


def busiest_class_id(node: MemcachedNode) -> int:
    return max(
        node.active_class_ids(),
        key=lambda cid: len(node.items_in_mru_order(cid)),
    )


# ----------------------------------------------------------------------
# LRU list integrity
# ----------------------------------------------------------------------


def test_healthy_node_passes_lru_check():
    node = make_node()
    assert check_lru(node) == node.curr_items


def test_truncated_next_pointer_is_caught():
    node = make_node()
    items = node.items_in_mru_order(busiest_class_id(node))
    assert len(items) >= 3
    items[1].next = None
    with pytest.raises(InvariantViolation) as excinfo:
        check_lru(node)
    assert excinfo.value.invariant == "lru"


def test_cycle_in_mru_list_is_caught():
    node = make_node()
    items = node.items_in_mru_order(busiest_class_id(node))
    items[-1].next = items[0]
    with pytest.raises(InvariantViolation):
        check_lru(node)


def test_broken_prev_pointer_is_caught():
    node = make_node()
    items = node.items_in_mru_order(busiest_class_id(node))
    items[2].prev = items[0]
    with pytest.raises(InvariantViolation) as excinfo:
        check_lru(node)
    assert "prev" in str(excinfo.value)


def test_unlinked_hash_table_entry_is_caught():
    node = make_node()
    items = node.items_in_mru_order(busiest_class_id(node))
    # Drop one linked item from the hash table without unlinking it.
    node._table.pop(items[0].key)
    with pytest.raises(InvariantViolation):
        check_lru(node)


def test_non_monotone_timestamps_caught_only_when_required():
    node = make_node()
    items = node.items_in_mru_order(busiest_class_id(node))
    items[-1].last_access = 1e9
    with pytest.raises(InvariantViolation) as excinfo:
        check_lru(node)
    assert excinfo.value.diff  # structured expected/actual payload
    assert check_lru(node, require_sorted_timestamps=False) > 0


# ----------------------------------------------------------------------
# Slab accounting
# ----------------------------------------------------------------------


def test_healthy_node_passes_slab_check():
    node = make_node()
    assert check_slabs(node) == node.curr_items


def test_leaked_page_is_caught():
    node = make_node()
    node.slabs.classes[busiest_class_id(node)].pages += 1
    with pytest.raises(InvariantViolation) as excinfo:
        check_slabs(node)
    assert excinfo.value.invariant == "slabs"


def test_used_chunk_drift_is_caught():
    node = make_node()
    node.slabs.classes[busiest_class_id(node)].used_chunks += 1
    with pytest.raises(InvariantViolation) as excinfo:
        check_slabs(node)
    assert "used_chunks" in excinfo.value.diff


def test_item_in_wrong_size_class_is_caught():
    node = make_node()
    class_ids = node.active_class_ids()
    assert len(class_ids) >= 2
    source, target = class_ids[0], class_ids[-1]
    item = node.items_in_mru_order(source)[0]
    node.slabs.classes[source].mru.remove(item)
    item.slab_class_id = target
    node.slabs.classes[target].mru.push_front(item)
    with pytest.raises(InvariantViolation):
        check_slabs(node)


def test_accounting_snapshot_is_consistent():
    node = make_node()
    snapshot = node.slabs.accounting()
    assert snapshot["summed_class_pages"] == snapshot["assigned_pages"]
    assert snapshot["items"] == snapshot["used_chunks"] == node.curr_items


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------


def test_healthy_ring_passes():
    ring = ConsistentHashRing(["a", "b", "c"])
    check_ring(ring)
    check_ring(ring, nodes=["a", "b", "c", "spare"])


def test_ring_with_dead_member_is_caught():
    ring = ConsistentHashRing(["a", "b", "c"])
    with pytest.raises(InvariantViolation) as excinfo:
        check_ring(ring, nodes=["a", "b"])
    assert excinfo.value.diff["dead_members"]["actual"] == ["c"]


def test_empty_ring_is_caught():
    ring = ConsistentHashRing([])
    with pytest.raises(InvariantViolation):
        check_ring(ring)


def test_warm_lookup_cache_passes_audit():
    ring = ConsistentHashRing(["a", "b", "c"])
    ring.lookup_many([f"key-{i}" for i in range(500)])
    check_ring(ring)


def test_stale_cache_entry_is_caught():
    """A cache entry that disagrees with the cold path must be flagged."""
    ring = ConsistentHashRing(["a", "b", "c"])
    keys = [f"key-{i}" for i in range(200)]
    ring.lookup_many(keys)
    victim = next(
        key for key in keys if ring.node_for_key(key) != "a"
    )
    ring._cache[victim] = "a"  # a corrupted entry
    with pytest.raises(InvariantViolation) as excinfo:
        check_ring(ring)
    assert "stale" in str(excinfo.value)
    assert excinfo.value.diff["owner"]["actual"] == "a"


def test_overfull_lookup_cache_is_caught():
    ring = ConsistentHashRing(["a", "b"])
    ring._cache_max = 4
    for index in range(20):
        key = f"key-{index}"
        ring._cache[key] = ring.uncached_lookup(key)
    with pytest.raises(InvariantViolation) as excinfo:
        check_ring(ring)
    assert "capacity" in str(excinfo.value)


def test_cache_audit_limit_bounds_the_scan():
    """The audit must stop at ``cache_audit_limit`` entries."""
    ring = ConsistentHashRing(["a", "b", "c"])
    keys = [f"key-{i}" for i in range(100)]
    ring.lookup_many(keys)
    # Poison one entry; with a zero audit budget the check cannot see it.
    ring._cache[keys[0]] = (
        "b" if ring.uncached_lookup(keys[0]) != "b" else "c"
    )
    check_ring(ring, cache_audit_limit=0)
    with pytest.raises(InvariantViolation):
        check_ring(ring, cache_audit_limit=len(keys))


def test_remap_fraction_on_removal():
    members = [f"node-{i:03d}" for i in range(5)]
    fraction = check_ring_remap(members, remove=members[2])
    assert 0.0 < fraction < 0.5  # ideal 1/5 within tolerance


def test_remap_fraction_on_addition():
    members = [f"node-{i:03d}" for i in range(5)]
    fraction = check_ring_remap(members, add="node-005")
    assert 0.0 < fraction < 0.4  # ideal 1/6 within tolerance


def test_remap_requires_exactly_one_change():
    with pytest.raises(InvariantViolation):
        check_ring_remap(["a", "b"])
    with pytest.raises(InvariantViolation):
        check_ring_remap(["a", "b"], add="c", remove="a")


# ----------------------------------------------------------------------
# StrictChecker plumbing
# ----------------------------------------------------------------------


def test_strict_checker_counts_and_skips_dead_nodes():
    cluster = MemcachedCluster(["n0", "n1"], 8 * (1 << 20))
    cluster.nodes["n0"].set("k", 1, 100, 1.0)
    checker = StrictChecker(cluster)
    checked = checker.check_nodes("plan", ["n0", "n1", "long-gone"])
    assert checked == 2
    assert checker.checks_run == 4  # lru + slabs per live node
    checker.check_cluster_ring("switch")
    assert checker.checks_run == 5


def test_strict_checker_surfaces_corruption():
    cluster = MemcachedCluster(["n0", "n1"], 8 * (1 << 20))
    node = cluster.nodes["n0"]
    node.set("k", 1, 100, 1.0)
    node.slabs.classes[node.active_class_ids()[0]].used_chunks += 3
    checker = StrictChecker(cluster)
    with pytest.raises(InvariantViolation):
        checker.check_nodes("import", ["n0"])

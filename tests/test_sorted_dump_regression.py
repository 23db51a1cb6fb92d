"""Regression tests: FuseCache inputs must survive MRU-order drift.

The paper's batch import prepends migrated items at the MRU head, which
breaks the "MRU order == timestamp order" identity FuseCache's binary
searches rely on.  An early version of this code fed the drifted lists
straight into FuseCache and span forever; these tests pin the two-part
fix: Agents re-sort their dumps, and FuseCache fails loudly (instead of
hanging) if handed unsorted data anyway.
"""

import pytest

from repro.core.agent import Agent
from repro.core.fusecache import fuse_cache
from repro.core.master import Master
from repro.errors import ConfigurationError
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MemcachedNode, MigratedItem
from repro.memcached.slab import PAGE_SIZE


def drifted_node(name="drifted") -> MemcachedNode:
    """A node whose MRU lists are NOT in timestamp order."""
    node = MemcachedNode(name, 4 * PAGE_SIZE)
    for i in range(50):
        node.set(f"new-{i:03d}", i, 150, 1000.0 + i)
    # Prepend-mode import of *older* items: they land at the head.
    old_items = [
        MigratedItem(f"old-{i:03d}", i, 150, float(i)) for i in range(50)
    ]
    node.batch_import(old_items, mode="prepend")
    # Sanity: the drift is real.
    class_id = node.active_class_ids()[0]
    timestamps = [ts for _, ts in node.dump_timestamps(class_id)]
    assert timestamps != sorted(timestamps, reverse=True)
    return node


class TestAgentSortsDumps:
    def test_dump_and_hash_lists_sorted_despite_drift(self):
        cluster = MemcachedCluster(["a", "b", "c"], 4 * PAGE_SIZE)
        node = cluster.nodes["a"]
        for i in range(50):
            node.set(f"new-{i:03d}", i, 150, 1000.0 + i)
        node.batch_import(
            [
                MigratedItem(f"old-{i:03d}", i, 150, float(i))
                for i in range(50)
            ],
            mode="prepend",
        )
        ring = ConsistentHashRing(["b", "c"])
        grouped = Agent(node).dump_and_hash(ring)
        for per_class in grouped.values():
            for entries in per_class.values():
                timestamps = [ts for _, ts in entries]
                assert timestamps == sorted(timestamps, reverse=True)

    def test_sorted_timestamps_helper(self):
        node = drifted_node()
        agent = Agent(node)
        for class_id in node.active_class_ids():
            timestamps = agent.sorted_timestamps(class_id)
            assert timestamps == sorted(timestamps, reverse=True)


class TestFuseCacheFailsLoudOnUnsorted:
    def test_unsorted_input_raises_instead_of_hanging(self):
        # Found by random search: unsorted inputs on which the pruning
        # loop makes no progress.  The convergence cap must fire.
        lists = [
            [100.0, 50.0, 1.0, 100.0, 50.0, 50.0, 100.0],
            [
                2.0, 50.0, 50.0, 1.0, 100.0, 100.0, 1.0, 0.0, 2.0, 2.0,
                2.0, 0.0, 100.0, 1.0, 2.0, 100.0, 1.0, 50.0, 100.0, 2.0,
                50.0, 0.0, 0.0, 100.0, 0.0, 0.0, 1.0, 1.0, 0.0, 2.0,
                0.0, 50.0,
            ],
        ]
        with pytest.raises(ConfigurationError):
            fuse_cache(lists, 22)

    def test_sorted_input_still_fine(self):
        lists = [[float(x) for x in range(200, 0, -1)] for _ in range(3)]
        assert sum(fuse_cache(lists, 100)) == 100


class TestSecondScalingAfterPrependImport:
    def test_two_scale_ins_with_prepend_mode(self):
        """The exact scenario that used to hang: scale in twice with the
        paper's prepend import in between."""
        cluster = MemcachedCluster(
            [f"n{i}" for i in range(4)], 4 * PAGE_SIZE
        )
        for i in range(2000):
            cluster.set(f"key-{i:05d}", i, 150, float(i))
        master = Master(cluster, import_mode="prepend")
        for _ in range(2):
            plan = master.plan_scale_in(master.choose_retiring(1))
            master.execute(plan)
        assert len(cluster.active_members) == 2

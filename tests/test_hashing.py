"""Tests for consistent and rendezvous hashing.

A ring is a value built once from its members, so a membership change is
two rings compared key by key.
"""

import gc
import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MembershipError
from repro.hashing.hashutil import hash32, hash64, points_for_vnode
from repro.hashing.ketama import LOOKUP_CACHE, ConsistentHashRing
from repro.hashing.rendezvous import RendezvousHash


class TestHashUtil:
    def test_hash64_is_stable(self):
        assert hash64("alpha") == hash64("alpha")
        assert hash64(b"alpha") == hash64("alpha")

    def test_hash64_differs_across_keys(self):
        assert hash64("alpha") != hash64("beta")

    def test_hash64_range(self):
        value = hash64("key")
        assert 0 <= value < 2**64

    def test_hash32_range(self):
        assert 0 <= hash32("key") < 2**32

    def test_hash32_is_hash64_prefix(self):
        for data in ("key", b"key", "", "k\u00e9y"):
            assert hash32(data) == hash64(data) >> 32

    def test_points_for_vnode_count(self):
        assert len(points_for_vnode("node", 7)) == 7
        assert len(points_for_vnode("node", 8)) == 8

    def test_points_for_vnode_deterministic(self):
        assert points_for_vnode("n1", 12) == points_for_vnode("n1", 12)

    def test_points_differ_per_label(self):
        assert points_for_vnode("n1", 4) != points_for_vnode("n2", 4)


class TestConsistentHashRing:
    def test_empty_ring_rejects_lookup(self):
        ring = ConsistentHashRing([])
        with pytest.raises(MembershipError):
            ring.node_for_key("k")

    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing(["only"])
        for i in range(50):
            assert ring.node_for_key(f"key{i}") == "only"

    def test_duplicate_add_rejected(self):
        with pytest.raises(MembershipError):
            ConsistentHashRing(["a", "b", "a"])

    def test_members_tracking(self):
        ring = ConsistentHashRing(["a", "b"])
        assert ring.members == {"a", "b"}
        smaller = ConsistentHashRing(ring.members - {"a"})
        assert smaller.members == {"b"}
        assert len(smaller) == 1
        assert "b" in smaller and "a" not in smaller
        assert ring.members == {"a", "b"}

    def test_routing_deterministic(self):
        ring1 = ConsistentHashRing(["a", "b", "c"])
        ring2 = ConsistentHashRing(["c", "a", "b"])
        for i in range(200):
            key = f"key{i}"
            assert ring1.node_for_key(key) == ring2.node_for_key(key)

    def test_balance_is_reasonable(self):
        ring = ConsistentHashRing([f"n{i}" for i in range(5)])
        counts = {name: 0 for name in ring.members}
        total = 5000
        for i in range(total):
            counts[ring.node_for_key(f"key{i}")] += 1
        for count in counts.values():
            assert 0.5 * total / 5 < count < 1.8 * total / 5

    def test_remap_fraction_on_removal(self):
        nodes = [f"n{i}" for i in range(10)]
        ring = ConsistentHashRing(nodes)
        before = {f"key{i}": ring.node_for_key(f"key{i}") for i in range(3000)}
        ring = ConsistentHashRing([name for name in nodes if name != "n3"])
        moved = 0
        for key, owner in before.items():
            after = ring.node_for_key(key)
            if owner == "n3":
                assert after != "n3"
            elif after != owner:
                moved += 1
        # Keys not owned by the removed node must not move at all.
        assert moved == 0

    def test_addition_only_steals_keys(self):
        nodes = [f"n{i}" for i in range(9)]
        ring = ConsistentHashRing(nodes)
        before = {f"key{i}": ring.node_for_key(f"key{i}") for i in range(3000)}
        ring = ConsistentHashRing([*nodes, "new"])
        stolen = 0
        for key, owner in before.items():
            after = ring.node_for_key(key)
            if after != owner:
                assert after == "new"
                stolen += 1
        # Roughly 1/(k+1) = 10% of keys move to the new node.
        assert 0.03 * len(before) < stolen < 0.25 * len(before)

    def test_set_members_converges(self):
        ring = ConsistentHashRing(["b", "c", "d", "e"])
        assert ring.members == {"b", "c", "d", "e"}
        # The ring depends on its members only, never on their order.
        reordered = ConsistentHashRing(["e", "d", "c", "b"])
        assert list(ring.iter_points()) == list(reordered.iter_points())

    def test_nodes_for_keys_partition(self):
        ring = ConsistentHashRing(["a", "b"])
        keys = [f"key{i}" for i in range(100)]
        grouped = ring.nodes_for_keys(keys)
        flattened = [key for bucket in grouped.values() for key in bucket]
        assert sorted(flattened) == sorted(keys)
        for node, bucket in grouped.items():
            for key in bucket:
                assert ring.node_for_key(key) == node

    @given(st.integers(min_value=2, max_value=8), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_lookup_always_returns_member(self, node_count, key_seed):
        ring = ConsistentHashRing([f"n{i}" for i in range(node_count)])
        assert ring.node_for_key(f"key{key_seed}") in ring.members


class TestRendezvousHash:
    def test_empty_rejects_lookup(self):
        with pytest.raises(MembershipError):
            RendezvousHash([]).node_for_key("k")

    def test_duplicate_add_rejected(self):
        with pytest.raises(MembershipError):
            RendezvousHash(["a", "a"])

    def test_minimal_remap_on_removal(self):
        nodes = [f"n{i}" for i in range(6)]
        hrw = RendezvousHash(nodes)
        before = {f"key{i}": hrw.node_for_key(f"key{i}") for i in range(2000)}
        hrw = RendezvousHash([name for name in nodes if name != "n2"])
        for key, owner in before.items():
            if owner != "n2":
                assert hrw.node_for_key(key) == owner

    def test_minimal_remap_on_addition(self):
        nodes = [f"n{i}" for i in range(5)]
        hrw = RendezvousHash(nodes)
        before = {f"key{i}": hrw.node_for_key(f"key{i}") for i in range(2000)}
        hrw = RendezvousHash([*nodes, "new"])
        for key, owner in before.items():
            after = hrw.node_for_key(key)
            assert after in (owner, "new")

    def test_set_members(self):
        hrw = RendezvousHash(["x", "y"])
        assert hrw.members == {"x", "y"}
        reordered = RendezvousHash(["y", "x"])
        keys = [f"key{i}" for i in range(500)]
        assert hrw.lookup_many(keys) == reordered.lookup_many(keys)

    def test_balance(self):
        hrw = RendezvousHash([f"n{i}" for i in range(4)])
        counts = {name: 0 for name in hrw.members}
        total = 4000
        for i in range(total):
            counts[hrw.node_for_key(f"key{i}")] += 1
        for count in counts.values():
            assert 0.6 * total / 4 < count < 1.5 * total / 4


# SHA-256 of the owners of ``key-000000`` .. ``key-019999``, one per line,
# recorded from the rings built by inserting one node at a time.  A ring
# built in one sort must route every key the same way.
GOLDEN_ROUTES = [
    pytest.param(
        ConsistentHashRing,
        [f"node-{i:03d}" for i in range(10)],
        "66148eaca339afadbc4e5091a00207c0f8555854190b1e646b23a416a7319197",
        id="ketama-node",
    ),
    pytest.param(
        ConsistentHashRing,
        [f"proc-{i:02d}" for i in range(3)],
        "9ff9f4d96474f96d69efe7b4b0d90677431fb9225c79f49ce011af444d46e035",
        id="ketama-proc",
    ),
    pytest.param(
        RendezvousHash,
        [f"node-{i:03d}" for i in range(10)],
        "ea87dbe9a8d9343968b8c4ca2982789292e2b64b289db6a72379bbf62e06e7eb",
        id="rendezvous-node",
    ),
    pytest.param(
        RendezvousHash,
        [f"proc-{i:02d}" for i in range(3)],
        "b96ab5f2578740e14cc8f0dc341025ec409621879cfff569fee4440d5b4a2ac6",
        id="rendezvous-proc",
    ),
]


@pytest.mark.parametrize(("factory", "members", "digest"), GOLDEN_ROUTES)
def test_golden_routes(factory, members, digest):
    keys = [f"key-{i:06d}" for i in range(20000)]
    for order in (members, members[::-1]):
        routes = "\n".join(factory(order).lookup_many(keys))
        assert hashlib.sha256(routes.encode()).hexdigest() == digest


@pytest.mark.parametrize("factory", [ConsistentHashRing, RendezvousHash])
def test_routing_memory_is_bounded(factory):
    """An unbounded stream of distinct keys keeps routing memory bounded.

    The placement's lookup cache is the only routing cache: once it is
    full, routing a new key allocates nothing that outlives the call.
    """
    keys = [f"stream-{i:07d}" for i in range(LOOKUP_CACHE + 20_000)]
    placement = factory(["a", "b", "c"])
    gc.collect()
    before = sys.getallocatedblocks()
    for key in keys:
        placement.node_for_key(key)
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert grown / len(keys) < 0.05
    assert placement.cache_info()["size"] == LOOKUP_CACHE

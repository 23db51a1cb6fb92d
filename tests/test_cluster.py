"""Tests for the routed cluster: one contract, held by both facades.

``TestMembership`` and ``TestRouting`` run on the in-process
``MemcachedCluster``; their ``Live`` subclasses rerun every case on a
``LiveCluster`` over real sockets by swapping the fixture.  Values that
are read back are wire-shaped ``(flags, payload)`` tuples, which both
facades return exactly as set.
"""

import pytest

from repro.errors import MembershipError
from repro.memcached.slab import PAGE_SIZE

V1 = (0, b"v1")


class TestMembership:
    def test_initial_membership(self, small_cluster):
        assert len(small_cluster.active_members) == 4
        assert len(small_cluster.nodes) == 4

    def test_provision_duplicate_rejected(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.provision("node-000")

    def test_activate_unprovisioned_rejected(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.activate("ghost")

    def test_provision_then_activate(self, small_cluster):
        small_cluster.provision("extra")
        assert "extra" not in small_cluster.active_members
        small_cluster.activate("extra")
        assert "extra" in small_cluster.active_members

    def test_deactivate_keeps_data(self, small_cluster):
        small_cluster.set("key", "v", 100, 1.0)
        owner = small_cluster.route("key")
        small_cluster.deactivate(owner)
        assert owner not in small_cluster.active_members
        assert small_cluster.nodes[owner].contains("key")

    def test_destroy_flushes_and_removes(self, small_cluster):
        small_cluster.destroy("node-001")
        assert "node-001" not in small_cluster.nodes
        assert "node-001" not in small_cluster.active_members

    def test_destroy_unknown_rejected(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.destroy("ghost")

    def test_set_membership_requires_provisioned(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.set_membership(["node-000", "ghost"])

    def test_set_membership(self, small_cluster):
        small_cluster.set_membership(["node-000", "node-002"])
        assert small_cluster.active_members == {"node-000", "node-002"}

    def test_a_membership_change_swaps_in_a_new_ring(self, small_cluster):
        before = small_cluster.ring
        small_cluster.set_membership(["node-000", "node-001"])
        assert small_cluster.ring is not before
        assert small_cluster.ring.members == {"node-000", "node-001"}
        # The ring routed on before the change is left as it was.
        assert len(before.members) == 4


class TestRouting:
    def test_route_is_stable(self, small_cluster):
        assert small_cluster.route("key1") == small_cluster.route("key1")

    def test_set_and_get_roundtrip(self, small_cluster):
        assert small_cluster.set("key1", V1, 100, 1.0)
        assert small_cluster.get("key1", 2.0) == V1

    def test_data_lands_on_routed_node(self, small_cluster):
        small_cluster.set("key1", "v1", 100, 1.0)
        owner = small_cluster.route("key1")
        for name, node in small_cluster.nodes.items():
            assert node.contains("key1") == (name == owner)

    def test_contains_follows_writes_after_a_read(self, small_cluster):
        node = small_cluster.nodes[small_cluster.route("key1")]
        assert not node.contains("key1")
        small_cluster.set("key1", "v1", 100, 1.0)
        assert node.contains("key1")
        assert node.peek("key1").key == "key1"
        small_cluster.delete("key1")
        assert not node.contains("key1")
        assert node.peek("key1") is None

    def test_delete_routes(self, small_cluster):
        small_cluster.set("key1", "v1", 100, 1.0)
        assert small_cluster.delete("key1")
        assert small_cluster.get("key1", 2.0) is None

    def test_multiget_partitions_hits_and_misses(self, small_cluster):
        small_cluster.set("a", (0, b"1"), 100, 1.0)
        small_cluster.set("b", (0, b"2"), 100, 1.0)
        hits, misses = small_cluster.multiget(["a", "b", "c"], 2.0)
        assert hits == {"a": (0, b"1"), "b": (0, b"2")}
        assert misses == ["c"]

    def test_keys_spread_across_nodes(self, small_cluster):
        for i in range(400):
            small_cluster.set(f"key{i}", i, 100, 1.0)
        populated = [
            node for node in small_cluster.active_nodes if node.curr_items
        ]
        assert len(populated) == 4

    def test_get_many_keeps_request_order_across_owners(self, small_cluster):
        keys = [f"key{i}" for i in range(40)]
        assert len(set(small_cluster.route_many(keys))) >= 2
        stored = keys[::2]
        for key in stored:
            small_cluster.set(key, (0, key.encode()), 100, 1.0)
        request = keys + ["key0", "key1", "key0"]
        assert small_cluster.get_many(request, 2.0) == [
            (0, key.encode()) if key in stored else None for key in request
        ]

    def test_get_many_single_owner_path(self, small_cluster):
        owner = small_cluster.route("key0")
        keys = [
            key
            for key in (f"key{i}" for i in range(200))
            if small_cluster.route(key) == owner
        ][:6]
        small_cluster.set(keys[0], V1, 100, 1.0)
        small_cluster.set(keys[2], V1, 100, 1.0)
        request = [keys[2], keys[1], keys[0], keys[2], keys[5]]
        assert small_cluster.get_many(request, 2.0) == [V1, None, V1, V1, None]

    def test_set_many_and_delete_many_count(self, small_cluster):
        keys = [f"key{i}" for i in range(30)]
        assert small_cluster.set_many([(key, V1, 100) for key in keys], 1.0) == 30
        assert small_cluster.total_items() == 30
        assert small_cluster.delete_many(keys[:10] + ["ghost"]) == 10
        assert small_cluster.total_items() == 20
        assert small_cluster.get_many(keys[8:12], 2.0) == [None, None, V1, V1]


class TestMembershipLive(TestMembership):
    @pytest.fixture
    def small_cluster(self, live_small_cluster):
        return live_small_cluster

    def test_provision_without_endpoint_rejected(self, small_cluster):
        with pytest.raises(MembershipError, match="no registered endpoint"):
            small_cluster.provision("ghost")
        assert "ghost" not in small_cluster.nodes

    def test_destroy_survives_a_dead_listener(self, small_cluster, live_harness):
        live_harness.stop_node("node-001")
        small_cluster.destroy("node-001")
        assert "node-001" not in small_cluster.nodes
        assert "node-001" not in small_cluster.active_members


class TestRoutingLive(TestRouting):
    @pytest.fixture
    def small_cluster(self, live_small_cluster):
        return live_small_cluster


class TestAggregates:
    def test_total_items_and_bytes(self, small_cluster):
        for i in range(20):
            small_cluster.set(f"key{i}", i, 100, 1.0)
        assert small_cluster.total_items() == 20
        assert small_cluster.total_used_bytes() > 0
        assert (
            small_cluster.total_capacity_bytes()
            == 4 * 4 * PAGE_SIZE
        )

    def test_aggregate_stats(self, small_cluster):
        small_cluster.set("a", 1, 100, 1.0)
        small_cluster.get("a", 2.0)
        small_cluster.get("missing", 3.0)
        stats = small_cluster.aggregate_stats()
        assert stats.sets == 1
        assert stats.get_hits == 1
        assert stats.get_misses == 1

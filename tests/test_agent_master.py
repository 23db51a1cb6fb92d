"""Tests for the Agent/Master migration protocol."""

import pytest

from repro.core.agent import TIMESTAMP_BYTES, Agent
from repro.core.master import Master
from repro.errors import MigrationError
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.slab import PAGE_SIZE
from repro.net.livemigrate import node_signature
from repro.netsim.transfer import NetworkModel
from repro.wire import EXPORT_BATCH_KEYS


def warmed_cluster(nodes=4, items=400, memory_pages=4) -> MemcachedCluster:
    names = [f"node-{i:03d}" for i in range(nodes)]
    cluster = MemcachedCluster(names, memory_pages * PAGE_SIZE)
    for i in range(items):
        cluster.set(f"key-{i:05d}", f"v{i}", 150, float(i))
    return cluster


class RelaySpy:
    """A node stand-in that records the size of every phase-3 call."""

    def __init__(self, node, calls: list[tuple[str, int]]) -> None:
        self._node = node
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._node, name)

    def __len__(self) -> int:
        return len(self._node)

    def export_items(self, keys):
        keys = list(keys)
        self._calls.append(("export_items", len(keys)))
        return self._node.export_items(keys)

    def batch_import(self, migrated, mode="merge", now=0.0):
        migrated = list(migrated)
        self._calls.append(("batch_import", len(migrated)))
        return self._node.batch_import(migrated, mode=mode, now=now)


def make_master(cluster) -> Master:
    return Master(
        cluster,
        network=NetworkModel(
            nic_bandwidth_bps=1e6, connection_setup_s=0.1
        ),
    )


class TestAgent:
    def test_dump_and_hash_targets_retained_only(self):
        cluster = warmed_cluster()
        retained = sorted(cluster.active_members)[:-1]
        ring = ConsistentHashRing(retained)
        retiring = sorted(cluster.active_members)[-1]
        agent = Agent(cluster.nodes[retiring])
        grouped = agent.dump_and_hash(ring)
        assert set(grouped) <= set(retained)
        total = sum(
            len(entries)
            for per_class in grouped.values()
            for entries in per_class.values()
        )
        assert total == cluster.nodes[retiring].curr_items

    def test_dump_lists_sorted_hottest_first(self):
        cluster = warmed_cluster()
        retained = sorted(cluster.active_members)[:-1]
        ring = ConsistentHashRing(retained)
        retiring = sorted(cluster.active_members)[-1]
        grouped = Agent(cluster.nodes[retiring]).dump_and_hash(ring)
        for per_class in grouped.values():
            for entries in per_class.values():
                timestamps = [ts for _, ts in entries]
                assert timestamps == sorted(timestamps, reverse=True)

    def test_metadata_bytes(self):
        per_class = {0: [("abc", 1.0), ("de", 2.0)]}
        expected = (3 + TIMESTAMP_BYTES) + (2 + TIMESTAMP_BYTES)
        assert Agent.metadata_bytes(per_class) == expected

    def test_median_report(self):
        cluster = warmed_cluster()
        name = sorted(cluster.active_members)[0]
        report = Agent(cluster.nodes[name]).median_report()
        assert report
        for class_id, median in report.items():
            assert (
                cluster.nodes[name].median_timestamp(class_id) == median
            )

    def test_slab_capacity_items_counts_free_pages(self):
        cluster = warmed_cluster(items=50)
        name = sorted(cluster.active_members)[0]
        agent = Agent(cluster.nodes[name])
        class_id = cluster.nodes[name].active_class_ids()[0]
        capacity = agent.slab_capacity_items(class_id)
        assert capacity >= cluster.nodes[name].curr_items


class TestScaleInPlanning:
    def test_plan_rejects_unknown_node(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        with pytest.raises(MigrationError):
            master.plan_scale_in(["ghost"])

    def test_plan_rejects_retiring_everything(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        with pytest.raises(MigrationError):
            master.plan_scale_in(sorted(cluster.active_members))

    def test_plan_structure(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        assert plan.kind == "scale_in"
        assert plan.retiring == retiring
        assert len(plan.retained) == 3
        assert plan.items_to_migrate > 0
        assert plan.bytes_to_migrate > 0
        assert plan.metadata_bytes > 0
        assert plan.duration_s > 0
        for (src, dst), keys in plan.transfers.items():
            assert src in retiring
            assert dst in plan.retained
            assert keys

    def test_planned_keys_route_to_their_destination(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        ring = ConsistentHashRing(plan.retained)
        for (src, dst), keys in plan.transfers.items():
            for key in keys:
                assert ring.node_for_key(key) == dst

    def test_migrates_everything_when_room(self):
        """With ample capacity on retained nodes, every retiring item
        survives (FuseCache selects all of them)."""
        cluster = warmed_cluster(items=200, memory_pages=8)
        master = make_master(cluster)
        retiring = master.choose_retiring(1)
        count = cluster.nodes[retiring[0]].curr_items
        plan = master.plan_scale_in(retiring)
        assert plan.items_to_migrate == count

    def test_timings_phases_populated(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        plan = master.plan_scale_in(master.choose_retiring(1))
        breakdown = plan.timings.breakdown()
        assert breakdown["scoring"] > 0
        assert breakdown["hash_and_dump"] > 0
        assert breakdown["metadata_transfer"] > 0
        assert breakdown["data_migration"] > 0
        assert breakdown["total"] == pytest.approx(plan.duration_s)

    def test_scoring_excluded_when_requested(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        plan = master.plan_scale_in(
            master.choose_retiring(1), include_scoring=False
        )
        assert plan.timings.scoring_s == 0.0


class TestScaleInExecution:
    def test_execute_switches_membership_and_destroys(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        report = master.execute(plan)
        assert set(report.membership_after) == set(plan.retained)
        assert retiring[0] not in cluster.nodes
        assert report.items_imported > 0
        assert report.items_imported == report.items_exported

    def test_migrated_keys_served_after_scale_in(self):
        cluster = warmed_cluster(memory_pages=8)
        master = make_master(cluster)
        retiring = master.choose_retiring(1)
        migrated_keys = [
            key
            for key in cluster.nodes[retiring[0]].keys()
        ]
        plan = master.plan_scale_in(retiring)
        master.execute(plan)
        hits = sum(
            1 for key in migrated_keys if cluster.get(key, 10_000.0)
        )
        # With room on retained nodes all migrated keys must now hit.
        assert hits == len(migrated_keys)

    def test_pairs_relay_one_wire_batch_at_a_time(self):
        """Every export and import carries at most one wire batch, and
        the result equals moving each pair in one piece."""
        cluster = warmed_cluster(nodes=3, items=13_000, memory_pages=6)
        twin = warmed_cluster(nodes=3, items=13_000, memory_pages=6)
        calls: list[tuple[str, int]] = []
        for name in list(cluster.nodes):
            cluster.nodes[name] = RelaySpy(cluster.nodes[name], calls)
        master = make_master(cluster)
        plan = master.plan_scale_in(master.choose_retiring(1))
        assert min(map(len, plan.transfers.values())) > 3 * EXPORT_BATCH_KEYS
        report = master.execute(plan)

        assert max(size for _, size in calls) <= EXPORT_BATCH_KEYS
        batches = sum(
            -(-len(keys) // EXPORT_BATCH_KEYS) for keys in plan.transfers.values()
        )
        assert [verb for verb, _ in calls] == ["export_items", "batch_import"] * batches

        # Reference: each pair moved in one piece on an identical cluster.
        twin_master = make_master(twin)
        twin_plan = twin_master.plan_scale_in(twin_master.choose_retiring(1))
        assert twin_plan.transfers == plan.transfers
        exported = imported = 0
        for (src, dst), keys in twin_plan.transfers.items():
            migrated = twin.nodes[src].export_items(keys)
            exported += len(migrated)
            imported += twin.nodes[dst].batch_import(migrated, mode="merge")
        assert report.outcome == "warm"
        assert report.completed_pairs == len(plan.transfers)
        assert (report.items_exported, report.items_imported) == (exported, imported)
        for name in plan.retained:
            assert node_signature(cluster.nodes[name]) == node_signature(
                twin.nodes[name]
            )

    def test_execute_tolerates_evicted_keys(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        retiring = master.choose_retiring(1)
        plan = master.plan_scale_in(retiring)
        # Simulate drift: one planned key disappears before execution.
        (src, _), keys = next(iter(plan.transfers.items()))
        cluster.nodes[src].delete(keys[0])
        report = master.execute(plan)
        assert report.items_exported == plan.items_to_migrate - 1


class TestScaleOut:
    def test_plan_provisions_new_nodes_cold(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        plan = master.plan_scale_out(["new-node"])
        assert "new-node" in cluster.nodes
        assert "new-node" not in cluster.active_members
        assert plan.kind == "scale_out"
        assert plan.items_to_migrate > 0

    def test_plan_rejects_existing_name(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        with pytest.raises(MigrationError):
            master.plan_scale_out(["node-000"])

    def test_plan_rejects_empty(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        with pytest.raises(MigrationError):
            master.plan_scale_out([])

    def test_remap_fraction_is_about_one_over_k_plus_one(self):
        cluster = warmed_cluster(nodes=4, items=2000, memory_pages=8)
        master = make_master(cluster)
        total = cluster.total_items()
        plan = master.plan_scale_out(["new-node"])
        fraction = plan.items_to_migrate / total
        assert 0.08 < fraction < 0.40  # ~1/5 with ketama variance

    def test_execute_warms_and_activates(self):
        cluster = warmed_cluster(memory_pages=8)
        master = make_master(cluster)
        plan = master.plan_scale_out(["new-node"])
        report = master.execute(plan)
        assert "new-node" in cluster.active_members
        assert cluster.nodes["new-node"].curr_items > 0
        assert report.items_imported == plan.items_to_migrate

    def test_new_node_serves_its_keys(self):
        cluster = warmed_cluster(memory_pages=8)
        master = make_master(cluster)
        plan = master.plan_scale_out(["new-node"])
        master.execute(plan)
        keys = [
            key
            for (_, dst), keys in plan.transfers.items()
            if dst == "new-node"
            for key in keys
        ]
        for key in keys[:50]:
            assert cluster.route(key) == "new-node"
            assert cluster.get(key, 10_000.0) is not None

    def test_abort_scale_out_cleans_up(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        plan = master.plan_scale_out(["new-node"])
        master.abort_scale_out(plan)
        assert "new-node" not in cluster.nodes


class TestFractionPlanning:
    def test_fraction_validation(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        name = sorted(cluster.active_members)[0]
        with pytest.raises(MigrationError):
            master.plan_fraction_scale_in([name], 1.5)
        with pytest.raises(MigrationError):
            master.plan_fraction_scale_in(["ghost"], 0.5)

    def test_fraction_takes_hottest_prefix(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        name = sorted(cluster.active_members)[0]
        node = cluster.nodes[name]
        plan = master.plan_fraction_scale_in([name], 0.5)
        planned = {
            key for keys in plan.transfers.values() for key in keys
        }
        # Every planned key must be hotter than every unplanned key of
        # the same slab class.
        for class_id in node.active_class_ids():
            items = node.items_in_mru_order(class_id)
            take = int(len(items) * 0.5)
            expected = {item.key for item in items[:take]}
            actual = {
                item.key for item in items if item.key in planned
            }
            assert actual == expected

    def test_fraction_zero_migrates_nothing(self):
        cluster = warmed_cluster()
        master = make_master(cluster)
        name = sorted(cluster.active_members)[0]
        plan = master.plan_fraction_scale_in([name], 0.0)
        assert plan.items_to_migrate == 0

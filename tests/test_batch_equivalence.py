"""Batched fast paths must be bit-identical to the per-op paths.

The hot-path engine (PR 4) added ``get_many``/``set_many``/``delete_many``
to nodes and the cluster, a per-ring routing cache with
``lookup_many`` on both hash functions, and a ``batched_ops`` switch in the
simulator.  None of that is allowed to change *behavior*: same seed, same
ops, same interleaving must produce the same cache contents, the same
stats, the same eviction sequence, and the same telemetry -- whether the
ops ran one at a time or in batches.  These tests pin that contract.
"""

import json
import random

import pytest

from repro.hashing.ketama import VNODES, ConsistentHashRing
from repro.hashing.rendezvous import RendezvousHash
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MemcachedNode
from repro.memcached.slab import PAGE_SIZE
from repro.obs import create_telemetry
from repro.obs.export import write_jsonl
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.workloads.traces import make_trace

from tests.test_determinism import scrub


def node_snapshot(node: MemcachedNode) -> dict:
    """Everything observable about a node's cache state, stats included.

    ``dump_metadata`` walks every per-class MRU list front to back, so it
    captures item identity, recency *order*, and last-access timestamps.
    """
    stats = node.stats
    return {
        "metadata": node.dump_metadata(),
        "curr_items": node.curr_items,
        "used_bytes": node.used_bytes,
        "stats": (
            stats.get_hits,
            stats.get_misses,
            stats.sets,
            stats.deletes,
            stats.evictions,
            stats.expired,
            stats.too_large,
            stats.imported,
        ),
    }


def cluster_snapshot(cluster: MemcachedCluster) -> dict:
    return {name: node_snapshot(node) for name, node in cluster.nodes.items()}


def make_workload(seed: int, num_keys: int, ops: int):
    """A mixed randomized op tape: (op, key, value_size) triples."""
    rng = random.Random(seed)
    keys = [f"key-{i:06d}" for i in range(num_keys)]
    tape = []
    for _ in range(ops):
        op = rng.choices(("set", "get", "delete"), weights=(5, 4, 1))[0]
        key = rng.choice(keys)
        # A narrow size band keeps the items in a couple of slab classes,
        # so the node's pages fill and the tape exercises LRU eviction.
        tape.append((op, key, rng.randint(700, 1000)))
    return tape


class TestNodeBatchEquivalence:
    def run_serial(self, tape):
        node = MemcachedNode("serial", 2 * PAGE_SIZE)
        for tick, (op, key, size) in enumerate(tape):
            now = float(tick)
            if op == "set":
                node.set(key, f"v-{key}-{size}", size, now)
            elif op == "get":
                node.get(key, now)
            else:
                node.delete(key)
        return node

    def run_batched(self, tape, batch_size):
        """Replay the tape through the *_many APIs in same-op runs.

        Consecutive same-op entries are grouped (up to ``batch_size``)
        exactly as the tick loop batches its per-second requests; the
        timestamp handed to each batch matches the serial run's first
        member, mirroring how the simulator stamps a whole batch.
        """
        node = MemcachedNode("batched", 2 * PAGE_SIZE)
        index = 0
        while index < len(tape):
            op = tape[index][0]
            end = index
            while (
                end < len(tape)
                and end - index < batch_size
                and tape[end][0] == op
            ):
                end += 1
            chunk = tape[index:end]
            if op == "set":
                # Per-item timestamps match the serial run's per-op calls.
                for offset, (_, key, size) in enumerate(chunk):
                    node.set_many(
                        [(key, f"v-{key}-{size}", size)],
                        float(index + offset),
                    )
            elif op == "get":
                # A get batch shares one timestamp in the simulator; use
                # per-item stamps here so the tapes stay comparable.
                for offset, (_, key, _) in enumerate(chunk):
                    node.get_many([key], float(index + offset))
            else:
                node.delete_many([key for _, key, _ in chunk])
            index = end
        return node

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_same_tape_same_state(self, batch_size):
        tape = make_workload(seed=101, num_keys=4_000, ops=8_000)
        serial = self.run_serial(tape)
        batched = self.run_batched(tape, batch_size)
        assert serial.stats.evictions > 0, "tape must stress eviction"
        assert node_snapshot(serial) == node_snapshot(batched)

    def test_multikey_batches_match_per_op(self):
        """One big get_many/set_many call versus the per-op loop."""
        tape = make_workload(seed=55, num_keys=120, ops=800)
        serial = MemcachedNode("serial", 4 * PAGE_SIZE)
        batched = MemcachedNode("batched", 4 * PAGE_SIZE)
        entries = [
            (key, f"v{size}", size) for op, key, size in tape if op == "set"
        ]
        for key, value, size in entries:
            serial.set(key, value, size, 1.0)
        batched.set_many(entries, 1.0)
        probes = [key for _, key, _ in tape]
        expected = [serial.get(key, 2.0) for key in probes]
        assert batched.get_many(probes, 2.0) == expected
        assert node_snapshot(serial) == node_snapshot(batched)

    def test_empty_and_duplicate_batches(self):
        node = MemcachedNode("edge", 4 * PAGE_SIZE)
        assert node.get_many([], 1.0) == []
        assert node.set_many([], 1.0) == 0
        assert node.delete_many([]) == 0
        # Duplicate keys behave like sequential per-op calls: last set
        # wins, repeated gets both hit.
        node.set_many([("dup", "a", 10), ("dup", "b", 10)], 1.0)
        assert node.get("dup", 2.0) == "b"
        assert node.get_many(["dup", "dup"], 3.0) == ["b", "b"]
        assert node.delete_many(["dup", "dup"]) == 1


class TestClusterBatchEquivalence:
    def build(self, name: str) -> MemcachedCluster:
        return MemcachedCluster(
            [f"{name}-{i}" for i in range(3)],
            memory_per_node=2 * PAGE_SIZE,
            growth_factor=2.0,
        )

    def test_cluster_state_matches_per_op(self):
        tape = make_workload(seed=9, num_keys=400, ops=3_000)
        serial = self.build("n")
        batched = self.build("n")
        for tick, (op, key, size) in enumerate(tape):
            now = float(tick)
            if op == "set":
                serial.set(key, f"v{size}", size, now)
                batched.set_many([(key, f"v{size}", size)], now)
            elif op == "get":
                assert serial.get(key, now) == batched.get_many([key], now)[0]
            else:
                serial.delete(key)
                batched.delete_many([key])
        assert cluster_snapshot(serial) == cluster_snapshot(batched)

    def test_multiget_matches_get_loop(self):
        cluster = self.build("m")
        keys = [f"key-{i:05d}" for i in range(500)]
        cluster.set_many([(k, f"v-{k}", 80) for k in keys[::2]], 1.0)
        probe = random.Random(3).sample(keys, 200)
        hits, misses = cluster.multiget(probe, 2.0)
        reference = self.build("m")
        reference.set_many([(k, f"v-{k}", 80) for k in keys[::2]], 1.0)
        expected_hits = {}
        expected_misses = []
        for key in probe:
            value = reference.get(key, 2.0)
            if value is None:
                expected_misses.append(key)
            else:
                expected_hits[key] = value
        assert hits == expected_hits
        assert misses == expected_misses
        assert cluster_snapshot(cluster) == cluster_snapshot(reference)

    def test_route_many_matches_route(self):
        cluster = self.build("r")
        keys = [f"key-{i:06d}" for i in range(2_000)]
        assert cluster.route_many(keys) == [cluster.route(k) for k in keys]


class TestRingCacheAgreement:
    """Cached routing must agree with the cold path across churn."""

    CHURN = (
        ("remove", "node-03"),
        ("add", "node-10"),
        ("remove", "node-00"),
        ("add", "node-11"),
        ("add", "node-03"),
    )

    @pytest.mark.parametrize("factory", [ConsistentHashRing, RendezvousHash])
    def test_cached_matches_uncached_across_churn(self, factory):
        members = {f"node-{i:02d}" for i in range(8)}
        rng = random.Random(42)
        keys = [f"obj:{rng.getrandbits(48):012x}" for _ in range(10_000)]
        previous = None
        for step, (action, node) in enumerate((("noop", ""),) + self.CHURN):
            if action == "add":
                members = members | {node}
            elif action == "remove":
                members = members - {node}
            ring = factory(members)
            owners = ring.lookup_many(keys)
            # Second pass is served from the warm cache; both passes must
            # match the from-scratch route for every key.
            assert ring.lookup_many(keys) == owners, f"step {step}"
            cold = [ring.uncached_lookup(key) for key in keys]
            assert owners == cold, f"step {step}"
            info = ring.cache_info()
            assert info["hits"] == len(keys)  # warm pass used the cache
            if previous is not None:
                # One node in or out moves only the keys it owns.
                for key, before, after in zip(keys, previous, owners):
                    if before != after:
                        assert node in (before, after), f"step {step}"
            previous = owners

    @pytest.mark.parametrize("factory", [ConsistentHashRing, RendezvousHash])
    def test_lookup_many_matches_per_key(self, factory):
        ring = factory(["a", "b", "c", "d"])
        keys = [f"key-{i}" for i in range(3_000)]
        assert ring.lookup_many(keys) == [ring.node_for_key(k) for k in keys]


class TestRingSwap:
    """A membership change mid-batch builds a new ring; the batch in
    flight finishes on the ring it started on, so no batch mixes routes."""

    def test_route_many_over_a_lazy_iterable_stays_on_its_ring(self):
        cluster = MemcachedCluster([f"n{i}" for i in range(4)], 64 * PAGE_SIZE)
        before = cluster.ring
        keys = [f"key-{i}" for i in range(2_000)]

        def rebinding():
            for index, key in enumerate(keys):
                if index == 1_000:
                    cluster.set_membership(["n0", "n1"])
                yield key

        routes = cluster.route_many(rebinding())
        assert cluster.active_members == {"n0", "n1"}
        assert routes == [before.uncached_lookup(key) for key in keys]
        assert set(routes) == {"n0", "n1", "n2", "n3"}
        after = ConsistentHashRing(["n0", "n1"])
        assert cluster.route_many(keys) == [
            after.uncached_lookup(key) for key in keys
        ]

    @staticmethod
    def check_rebind_keeps_its_ring(factory, rebind_at: int):
        holder = {"ring": factory(["a", "b", "c"])}
        ring = holder["ring"]
        keys = [f"key-{i}" for i in range(300)]

        def rebinding():
            for index, key in enumerate(keys):
                if index == rebind_at % len(keys):
                    holder["ring"] = factory(["a", "d"])
                yield key

        owners = ring.lookup_many(rebinding())
        assert owners == [ring.uncached_lookup(key) for key in keys]
        assert set(owners) == {"a", "b", "c"}
        assert ring.members == {"a", "b", "c"}
        assert set(holder["ring"].lookup_many(keys)) == {"a", "d"}

    @pytest.mark.parametrize("factory", [ConsistentHashRing, RendezvousHash])
    def test_rebind_mid_batch_keeps_its_ring(self, factory):
        self.check_rebind_keeps_its_ring(factory, rebind_at=1)

    @pytest.mark.parametrize("factory", [ConsistentHashRing, RendezvousHash])
    def test_last_key_rebind_keeps_its_ring(self, factory):
        self.check_rebind_keeps_its_ring(factory, rebind_at=-1)

    def test_iter_points_walks_the_ring_it_was_taken_from(self):
        cluster = MemcachedCluster(["a", "b"], 64 * PAGE_SIZE)
        iterator = cluster.ring.iter_points()
        first = next(iterator)
        cluster.provision("c")
        cluster.activate("c")
        points = [first, *iterator]
        assert len(points) == 2 * VNODES
        assert {owner for _, owner in points} == {"a", "b"}
        assert points == sorted(points)

    @pytest.mark.parametrize("factory", [ConsistentHashRing, RendezvousHash])
    def test_clean_batches_unaffected(self, factory):
        ring = factory(["a", "b", "c"])
        keys = (f"key-{i}" for i in range(100))  # lazy but benign
        owners = ring.lookup_many(keys)
        assert len(owners) == 100
        assert set(owners) <= {"a", "b", "c"}


def run_experiment_once(tmp_path, tag: str, batched: bool):
    telemetry = create_telemetry()
    config = ExperimentConfig(
        trace=make_trace("sys", duration_s=120),
        policy="elmem",
        duration_s=120,
        num_keys=20_000,
        initial_nodes=5,
        schedule=[(50.0, 4)],
        seed=7,
        strict_checks=True,
        telemetry=telemetry,
        batched_ops=batched,
    )
    result = run_experiment(config)
    path = write_jsonl(
        tmp_path / f"{tag}.jsonl",
        tracer=telemetry.tracer,
        metrics=telemetry.metrics,
        meta={"seed": config.seed},
    )
    return result, path


@pytest.mark.slow
def test_experiment_batched_vs_serial_bit_identical(tmp_path):
    """The headline contract: flipping ``batched_ops`` changes nothing.

    Same config and seed, one run through the batched multiget/fill path
    and one through the historical per-key loops, compared down to the
    exported telemetry JSONL (wall-clock spans scrubbed, as in
    tests/test_determinism.py).  Strict mode keeps the invariant checker
    on throughout both runs.
    """
    batched, batched_path = run_experiment_once(tmp_path, "batched", True)
    serial, serial_path = run_experiment_once(tmp_path, "serial", False)

    assert batched.summary() == serial.summary()
    assert list(batched.metrics.hit_rates()) == list(serial.metrics.hit_rates())
    assert list(batched.metrics.p95_series_ms()) == list(
        serial.metrics.p95_series_ms()
    )
    assert batched.scaling_times == serial.scaling_times
    assert [r.outcome for r in batched.reports] == [
        r.outcome for r in serial.reports
    ]

    batched_lines = batched_path.read_text().splitlines()
    serial_lines = serial_path.read_text().splitlines()
    assert len(batched_lines) == len(serial_lines)
    for left, right in zip(batched_lines, serial_lines):
        assert scrub(json.loads(left)) == scrub(json.loads(right))

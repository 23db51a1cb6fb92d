"""Ablation: consistent hashing (ketama) vs rendezvous hashing.

ElMem's scale-out migration is cheap because consistent hashing remaps
only ~1/(k+1) of the keys (Section III-D4).  This ablation quantifies
that property for both placement functions and times their uncached
lookups: the ring does O(log(k*vnodes)) lookups with small remap
variance; rendezvous achieves provably minimal remapping at O(k) lookup
cost.
"""

import time

import pytest

from repro.hashing.ketama import ConsistentHashRing
from repro.hashing.rendezvous import RendezvousHash

from benchmarks._harness import write_report

KEYS = [f"key-{i:06d}" for i in range(20_000)]
NODES = [f"node-{i:02d}" for i in range(10)]


def measure(factory):
    mapper = factory(NODES)
    before = {key: mapper.node_for_key(key) for key in KEYS}
    # Time the cold path: ``node_for_key`` would answer from the lookup
    # cache ``before`` just filled, so it would time a dict probe.  The
    # hash primitives are not memoised, so each ``uncached_lookup`` is a
    # full MD5 plus a bisect (ketama) or one MD5 per node (rendezvous).
    start = time.perf_counter()
    for key in KEYS:
        mapper.uncached_lookup(key)
    lookup_time = (time.perf_counter() - start) / len(KEYS)

    removed = factory(mapper.members - {NODES[3]})
    moved_on_removal = sum(
        1
        for key, owner in before.items()
        if owner != NODES[3] and removed.node_for_key(key) != owner
    )
    displaced = sum(1 for owner in before.values() if owner == NODES[3])

    readded = factory(removed.members | {NODES[3]})
    restored = sum(
        1 for key in KEYS if readded.node_for_key(key) == before[key]
    )
    return {
        "lookup_us": lookup_time * 1e6,
        "gratuitous_moves": moved_on_removal,
        "displaced": displaced,
        "restored_fraction": restored / len(KEYS),
    }


def run_ablation():
    return {
        "ketama": measure(ConsistentHashRing),
        "rendezvous": measure(RendezvousHash),
    }


@pytest.mark.benchmark(group="ablation")
def bench_ablation_hashing(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        "scheme       uncached(us)  displaced(1/k expected)  "
        "gratuitous-moves  restored-after-readd"
    ]
    for name, stats in results.items():
        rows.append(
            f"{name:12s} {stats['lookup_us']:12.2f}  "
            f"{stats['displaced']:10d} ({stats['displaced']/len(KEYS):.1%}) "
            f"{stats['gratuitous_moves']:17d}  "
            f"{stats['restored_fraction']:19.1%}"
        )
    rows.append(
        "both schemes move only the retired node's keys; rendezvous "
        "lookups scale O(k) vs the ring's O(log)"
    )
    write_report("ablation_hashing", rows)

    for stats in results.values():
        # Minimal remapping: no key moves unless its owner was removed.
        assert stats["gratuitous_moves"] == 0
        # Removing 1 of 10 nodes displaces ~10% of keys.
        assert 0.05 < stats["displaced"] / len(KEYS) < 0.2
        # Re-adding the node restores the original mapping.
        assert stats["restored_fraction"] == 1.0

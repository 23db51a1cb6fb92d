"""The per-node Agent (Section III-A/III-D).

One Agent runs on every Memcached node.  Agents do the node-local work
of phases 1 and 2: dumping MRU timestamps, hashing keys against the
post-scaling membership, sizing the metadata they ship, and reporting
the per-class lists and capacity FuseCache selects over.  Phase 3 moves
data with the node's own ``export_items``/``batch_import`` commands.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.interfaces import CacheNode
from repro.hashing.ketama import ConsistentHashRing

TIMESTAMP_BYTES = 10
"""Bytes per serialized MRU timestamp in a metadata dump (paper III-D1)."""


class Agent:
    """Migration agent co-located with one Memcached node."""

    def __init__(self, node: CacheNode) -> None:
        self.node = node

    # ------------------------------------------------------------------
    # Phase 1: metadata dump, hashed against the post-scaling membership
    # ------------------------------------------------------------------

    def dump_and_hash(
        self, target_ring: ConsistentHashRing
    ) -> dict[str, dict[int, list[tuple[str, float]]]]:
        """Group this node's items by (target node, slab class).

        Iterates every slab class and hashes each key against
        ``target_ring`` (the membership that will exist *after* scaling),
        so each target receives per-class key/timestamp lists sorted
        hottest-first -- the exact FuseCache input.

        The lists are explicitly re-sorted by timestamp: MRU-list order
        equals timestamp order on an untouched cache, but the paper's
        head-prepending batch import (and any ``fresh``-mode migration)
        perturbs it, and FuseCache's binary searches silently misbehave
        on unsorted input.

        Each key is looked up once on a ring built for this plan, so the
        lookups skip the ring's route cache, which would only fill with
        entries nobody reads again.
        """
        grouped: dict[str, dict[int, list[tuple[str, float]]]] = {}
        for class_id in self.node.active_class_ids():
            for entry in self.node.dump_timestamps(class_id):
                target = target_ring.uncached_lookup(entry[0])
                if target == self.node.name:
                    continue
                per_class = grouped.setdefault(target, {})
                per_class.setdefault(class_id, []).append(entry)
        for per_class in grouped.values():
            for entries in per_class.values():
                entries.sort(key=lambda pair: pair[1], reverse=True)
        return grouped

    def sorted_timestamps(self, class_id: int) -> list[float]:
        """This node's own slab timestamps, hottest-first (FuseCache's
        ``k``-th list), robust to prepend-mode order drift."""
        rows = self.node.dump_timestamps(class_id)
        return sorted((timestamp for _, timestamp in rows), reverse=True)

    @staticmethod
    def metadata_bytes(
        per_class: Mapping[int, list[tuple[str, float]]]
    ) -> int:
        """Wire size of one metadata dump: keys plus 10-byte timestamps."""
        return sum(
            len(key) + TIMESTAMP_BYTES
            for entries in per_class.values()
            for key, _ in entries
        )

    # ------------------------------------------------------------------
    # Modeled local costs (fault-aware)
    # ------------------------------------------------------------------

    MIN_RATE_FACTOR = 1e-3
    """Floor for stall factors: a fully stalled node still crawls at
    0.1% throughput, which blows any reasonable migration deadline
    without dividing by zero."""

    @classmethod
    def local_seconds(
        cls, item_count: int, rate_items_s: float, stall_factor: float = 1.0
    ) -> float:
        """Modeled seconds to dump+hash or batch-import ``item_count``
        items locally, slowed by an injected ``stall_factor`` (1.0 =
        healthy)."""
        factor = max(stall_factor, cls.MIN_RATE_FACTOR)
        return item_count / (rate_items_s * factor)

    # ------------------------------------------------------------------
    # Scoring support (Section III-C)
    # ------------------------------------------------------------------

    def median_report(self) -> dict[int, float]:
        """Median MRU timestamp per non-empty slab class."""
        report: dict[int, float] = {}
        for class_id in self.node.active_class_ids():
            median = self.node.median_timestamp(class_id)
            if median is not None:
                report[class_id] = median
        return report

    def slab_capacity_items(self, class_id: int) -> int:
        """Items the node could hold in ``class_id`` after the merge.

        Counts chunks in pages already assigned to the class plus chunks
        the class could carve from still-free pages -- the ``n`` that
        FuseCache selects for (Section IV: "a retained node that has space
        for n items in that slab").
        """
        slab_class = self.node.slabs.classes[class_id]
        expandable = self.node.slabs.free_pages * slab_class.chunks_per_page
        return slab_class.total_chunks + expandable

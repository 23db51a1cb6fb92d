"""Rendezvous (highest-random-weight) hashing.

An alternative placement function used in the ablation benchmarks: it gives
perfectly minimal remapping on membership change at the cost of O(k) lookup
per key, versus the ring's O(log k·vnodes).

Like the ketama ring it is a value built once from its members, and it
mirrors the ring's hot-path surface: a bounded lookup cache over
:meth:`RendezvousHash.node_for_key` (the O(k) scan is even more expensive
than the ring's binary search, so caching pays off sooner) and a batched
:meth:`RendezvousHash.lookup_many`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import MembershipError
from repro.hashing.hashutil import hash64
from repro.hashing.ketama import LOOKUP_CACHE, distinct_members


class RendezvousHash:
    """Highest-random-weight key-to-node mapping over named nodes."""

    def __init__(self, nodes: Iterable[str]) -> None:
        self._members = distinct_members(nodes)
        self._cache: dict[str, str] = {}
        self._cache_max = LOOKUP_CACHE
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def members(self) -> frozenset[str]:
        """The node names."""
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: str) -> bool:
        return node in self._members

    def uncached_lookup(self, key: str) -> str:
        """Owner of ``key`` computed from scratch (cache bypassed)."""
        if not self._members:
            raise MembershipError("no members")
        return max(self._members, key=lambda node: hash64(f"{node}:{key}"))

    def node_for_key(self, key: str) -> str:
        """Return the member with the highest combined hash for ``key``."""
        owner = self._cache.get(key)
        if owner is not None:
            self.cache_hits += 1
            return owner
        self.cache_misses += 1
        owner = self.uncached_lookup(key)
        if self._cache_max:
            cache = self._cache
            if len(cache) >= self._cache_max:
                del cache[next(iter(cache))]
            cache[key] = owner
        return owner

    def lookup_many(self, keys: Iterable[str]) -> list[str]:
        """Owners for ``keys`` in order."""
        if not self._members:
            raise MembershipError("no members")
        return [self.node_for_key(key) for key in keys]

    def nodes_for_keys(self, keys: Iterable[str]) -> dict[str, list[str]]:
        """Group ``keys`` by owning node."""
        grouped: dict[str, list[str]] = {}
        keys = list(keys)
        for key, owner in zip(keys, self.lookup_many(keys)):
            grouped.setdefault(owner, []).append(key)
        return grouped

    def cache_info(self) -> dict[str, int]:
        """Lookup-cache statistics (size, capacity, hit/miss counters)."""
        return {
            "size": len(self._cache),
            "max_size": self._cache_max,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
        }

    def cached_routes(self) -> dict[str, str]:
        """Snapshot of the lookup cache (key -> owner)."""
        return dict(self._cache)

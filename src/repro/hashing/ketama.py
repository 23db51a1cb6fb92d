"""Ketama-style consistent hashing ring.

This is the client-side placement function used by ``libmemcached`` in the
paper's testbed.  Each node contributes many virtual points on a 32-bit ring;
a key is owned by the first point clockwise from its hash.  Removing one of
``k+1`` nodes remaps roughly ``1/(k+1)`` of the keys, and only to surviving
nodes -- the property ElMem's scale-out path relies on (Section III-D4).

A ring is a value: it is built once from its members and never changes.
A membership change builds a new ring and the holder rebinds to it, so a
batch of lookups that started on one ring finishes on that ring.

Lookups are the hottest operation in the whole simulator (every simulated
request routes each of its keys), so each ring keeps a bounded **lookup
cache**: a key -> owner dict that turns the md5 + binary-search lookup into
a single dict probe.  The cache belongs to one membership by construction.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator

from repro.errors import MembershipError
from repro.hashing.hashutil import hash32, points_for_vnode

VNODES = 160
"""Virtual points per node."""

# Key populations in the simulator are a few hundred thousand; a cache of
# 2^17 entries holds the hot working set while bounding worst-case memory.
LOOKUP_CACHE = 1 << 17


def distinct_members(nodes: Iterable[str]) -> frozenset[str]:
    """``nodes`` as a set; raises :class:`MembershipError` on a repeat."""
    names = list(nodes)
    members = frozenset(names)
    if len(members) != len(names):
        repeated = sorted({name for name in names if names.count(name) > 1})
        raise MembershipError(f"nodes named more than once: {repeated}")
    return members


class ConsistentHashRing:
    """An immutable consistent-hash ring over a set of named nodes.

    ``VNODES`` points per node, sorted once; a tied point goes to the
    lesser name.
    """

    def __init__(self, nodes: Iterable[str]) -> None:
        self._members = distinct_members(nodes)
        ring = sorted(
            (point, name)
            for name in self._members
            for point in points_for_vnode(name, VNODES)
        )
        self._points = [point for point, _ in ring]
        self._owners = [name for _, name in ring]
        self._cache: dict[str, str] = {}
        self._cache_max = LOOKUP_CACHE
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def members(self) -> frozenset[str]:
        """The node names on the ring."""
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: str) -> bool:
        return node in self._members

    def iter_points(self) -> Iterator[tuple[int, str]]:
        """Yield ``(point, owner)`` pairs in ring order.

        Read-only introspection for balance analysis and the
        :func:`repro.check.invariants.check_ring` validator; the pairs
        are yielded ascending by point.
        """
        return zip(self._points, self._owners)

    def uncached_lookup(self, key: str) -> str:
        """Owner of ``key`` computed from scratch (cache bypassed).

        The reference slow path: one 32-bit hash plus a binary search over
        the virtual points.  Used by the invariant checker to audit cache
        entries and by the hashing ablation to time the cold path.
        """
        if not self._points:
            raise MembershipError("hash ring is empty")
        point = hash32(key)
        index = bisect.bisect(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def node_for_key(self, key: str) -> str:
        """Return the node owning ``key``; raises if the ring is empty.

        Served from the lookup cache when possible; a miss falls back to
        :meth:`uncached_lookup` and populates the cache.
        """
        cache = self._cache
        owner = cache.get(key)
        if owner is not None:
            self.cache_hits += 1
            return owner
        if not self._points:
            raise MembershipError("hash ring is empty")
        self.cache_misses += 1
        point = hash32(key)
        index = bisect.bisect(self._points, point)
        if index == len(self._points):
            index = 0
        owner = self._owners[index]
        if self._cache_max:
            if len(cache) >= self._cache_max:
                # Evict the least recently inserted entry (insertion order
                # approximates recency: the key population is bounded).
                del cache[next(iter(cache))]
            cache[key] = owner
        return owner

    def lookup_many(self, keys: Iterable[str]) -> list[str]:
        """Owners for ``keys``, one per key, in order.

        One cache probe per key with a single shared fallback to the
        cold path.  ``keys`` may be a lazy iterable.
        """
        if not self._points:
            raise MembershipError("hash ring is empty")
        cache = self._cache
        if type(keys) is list:
            # Warm-cache fast path: a pure dict-read comprehension.
            try:
                owners = [cache[key] for key in keys]
            except KeyError:
                pass
            else:
                self.cache_hits += len(owners)
                return owners
        cache_get = cache.get
        points = self._points
        owners_list = self._owners
        npoints = len(points)
        cache_max = self._cache_max
        owners = []
        append = owners.append
        hits = 0
        misses = 0
        for key in keys:
            owner = cache_get(key)
            if owner is None:
                misses += 1
                point = hash32(key)
                index = bisect.bisect(points, point)
                if index == npoints:
                    index = 0
                owner = owners_list[index]
                if cache_max:
                    if len(cache) >= cache_max:
                        del cache[next(iter(cache))]
                    cache[key] = owner
            else:
                hits += 1
            append(owner)
        self.cache_hits += hits
        self.cache_misses += misses
        return owners

    def nodes_for_keys(self, keys: Iterable[str]) -> dict[str, list[str]]:
        """Group ``keys`` by owning node (one cached ring lookup per key)."""
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
        """Snapshot of the lookup cache (key -> owner).

        Read-only introspection for
        :func:`repro.check.invariants.check_ring`, which audits every
        cached route against :meth:`uncached_lookup`.
        """
        return dict(self._cache)

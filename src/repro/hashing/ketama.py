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
request routes each of its keys), so every placement keeps a bounded
**lookup cache** (:class:`Placement`): a key -> owner dict that turns the
md5 + binary-search lookup into a single dict probe.  It is the only
routing cache in the process -- the hash primitives are not memoised -- and
it belongs to one membership by construction.
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


class Placement:
    """A key-to-node mapping over a fixed member set, behind a lookup cache.

    Subclasses supply :meth:`uncached_lookup`; every cache miss goes
    through it.  The cache holds at most ``LOOKUP_CACHE`` routes and
    evicts the oldest insert first.
    """

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
        """Owner of ``key`` computed from scratch (cache bypassed); raises
        :class:`MembershipError` when there are no members."""
        raise NotImplementedError

    def _miss(self, key: str) -> str:
        owner = self.uncached_lookup(key)
        self.cache_misses += 1
        cache = self._cache
        if len(cache) >= self._cache_max:
            # Evict the oldest insert: FIFO keeps the hit path free of
            # any per-hit bookkeeping.
            del cache[next(iter(cache))]
        cache[key] = owner
        return owner

    def node_for_key(self, key: str) -> str:
        """Return the node owning ``key``; raises if there are no members."""
        owner = self._cache.get(key)
        if owner is not None:
            self.cache_hits += 1
            return owner
        return self._miss(key)

    def lookup_many(self, keys: Iterable[str]) -> list[str]:
        """Owners for ``keys``, one per key, in order.

        One cache probe per key; ``keys`` may be a lazy iterable.
        """
        if not self._members:
            raise MembershipError("no members to place keys on")
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
        miss = self._miss
        owners = []
        append = owners.append
        hits = 0
        for key in keys:
            owner = cache_get(key)
            if owner is None:
                owner = miss(key)
            else:
                hits += 1
            append(owner)
        self.cache_hits += hits
        return owners

    def nodes_for_keys(self, keys: Iterable[str]) -> dict[str, list[str]]:
        """Group ``keys`` by owning node (one cached lookup per key)."""
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


class ConsistentHashRing(Placement):
    """An immutable consistent-hash ring over a set of named nodes.

    ``VNODES`` points per node, sorted once; a tied point goes to the
    lesser name.
    """

    def __init__(self, nodes: Iterable[str]) -> None:
        super().__init__(nodes)
        ring = sorted(
            (point, name)
            for name in self._members
            for point in points_for_vnode(name, VNODES)
        )
        self._points = [point for point, _ in ring]
        self._owners = [name for _, name in ring]

    def iter_points(self) -> Iterator[tuple[int, str]]:
        """Yield ``(point, owner)`` pairs in ring order.

        Read-only introspection for balance analysis and the
        :func:`repro.check.invariants.check_ring` validator; the pairs
        are yielded ascending by point.
        """
        return zip(self._points, self._owners)

    def uncached_lookup(self, key: str) -> str:
        """The owner of the first point clockwise from ``key``'s hash."""
        points = self._points
        if not points:
            raise MembershipError("hash ring is empty")
        index = bisect.bisect(points, hash32(key))
        return self._owners[index if index < len(points) else 0]

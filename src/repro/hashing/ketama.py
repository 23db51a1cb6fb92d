"""Ketama-style consistent hashing ring.

This is the client-side placement function used by ``libmemcached`` in the
paper's testbed.  Each node contributes many virtual points on a 32-bit ring;
a key is owned by the first point clockwise from its hash.  Removing one of
``k+1`` nodes remaps roughly ``1/(k+1)`` of the keys, and only to surviving
nodes -- the property ElMem's scale-out path relies on (Section III-D4).

Lookups are the hottest operation in the whole simulator (every simulated
request routes each of its keys), so the ring keeps a **per-membership
lookup cache**: a keyed LRU mapping key -> owner that turns the md5 +
binary-search lookup into a single dict probe.  The cache is invalidated
wholesale on any membership change, and a monotonically increasing
*generation* counter lets batched lookups detect mid-flight mutation and
fail loudly instead of returning routes computed on mixed memberships.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator

from repro.errors import ConfigurationError, MembershipError, RingMutationError
from repro.hashing.hashutil import hash32, points_for_vnode

DEFAULT_VNODES = 160

# Key populations in the simulator are a few hundred thousand; a cache of
# 2^17 entries holds the hot working set while bounding worst-case memory.
DEFAULT_LOOKUP_CACHE = 1 << 17


class ConsistentHashRing:
    """A consistent-hash ring over a set of named nodes.

    Parameters
    ----------
    nodes:
        Initial node names.
    vnodes:
        Virtual points per node (per unit weight).  More points give better
        balance at the cost of a larger ring.
    weights:
        Optional per-node weight multipliers for heterogeneous nodes.
    lookup_cache_size:
        Maximum entries in the key -> owner lookup cache (0 disables
        caching entirely; useful for benchmarking the cold path).
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        vnodes: int = DEFAULT_VNODES,
        weights: dict[str, float] | None = None,
        lookup_cache_size: int = DEFAULT_LOOKUP_CACHE,
    ) -> None:
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        if lookup_cache_size < 0:
            raise ConfigurationError(
                f"lookup_cache_size must be >= 0, got {lookup_cache_size}"
            )
        self._vnodes = vnodes
        self._weights = dict(weights or {})
        self._points: list[int] = []
        self._owners: list[str] = []
        self._members: set[str] = set()
        # Lookup cache: key -> owner under the *current* membership only.
        self._cache: dict[str, str] = {}
        self._cache_max = lookup_cache_size
        self._generation = 0
        self.cache_hits = 0
        self.cache_misses = 0
        for node in nodes:
            self.add_node(node)

    @property
    def members(self) -> frozenset[str]:
        """The current set of node names on the ring."""
        return frozenset(self._members)

    @property
    def generation(self) -> int:
        """Membership-change counter; bumps on every add/remove."""
        return self._generation

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node: str) -> bool:
        return node in self._members

    def _invalidate(self) -> None:
        """Drop the lookup cache and mark a new membership generation."""
        self._generation += 1
        if self._cache:
            self._cache.clear()

    def add_node(self, node: str, weight: float | None = None) -> None:
        """Add ``node`` to the ring; raises if it is already a member."""
        if node in self._members:
            raise MembershipError(f"node {node!r} already on the ring")
        if weight is not None:
            self._weights[node] = weight
        self._invalidate()
        self._members.add(node)
        count = max(1, round(self._vnodes * self._weights.get(node, 1.0)))
        for point in points_for_vnode(node, count):
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove_node(self, node: str) -> None:
        """Remove ``node`` from the ring; raises if it is not a member."""
        if node not in self._members:
            raise MembershipError(f"node {node!r} not on the ring")
        self._invalidate()
        self._members.remove(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def set_members(self, nodes: Iterable[str]) -> None:
        """Reset ring membership to exactly ``nodes``."""
        target = set(nodes)
        for node in list(self._members - target):
            self.remove_node(node)
        for node in sorted(target - self._members):
            self.add_node(node)

    def iter_points(self) -> Iterator[tuple[int, str]]:
        """Yield ``(point, owner)`` pairs in ring order.

        Read-only introspection for balance analysis and the
        :func:`repro.check.invariants.check_ring` validator; the pairs
        are yielded ascending by point.  Mutating the ring while the
        iterator is live raises :class:`RingMutationError` -- a point
        list belonging to a dead membership must not be walked further.
        """
        generation = self._generation
        for pair in zip(self._points, self._owners):
            if self._generation != generation:
                raise RingMutationError(
                    "ring membership changed during iter_points()"
                )
            yield pair

    def uncached_lookup(self, key: str) -> str:
        """Owner of ``key`` computed from scratch (cache bypassed).

        The reference slow path: one 32-bit hash plus a binary search over
        the virtual points.  Used by the invariant checker to audit cache
        entries and by the benchmark gate to measure the cold path.
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

        Served from the keyed-LRU lookup cache when possible; a miss
        falls back to :meth:`uncached_lookup` and populates the cache.
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
                # approximates recency: hot keys are re-inserted after
                # every invalidation and the population is bounded).
                del cache[next(iter(cache))]
            cache[key] = owner
        return owner

    # ``lookup``/``lookup_many`` are the batched-routing surface the
    # cluster's multi-get path uses; ``node_for_key`` remains the
    # historical per-key name.
    lookup = node_for_key

    def lookup_many(self, keys: Iterable[str]) -> list[str]:
        """Owners for ``keys``, one per key, in order.

        One cache probe per key with a single shared fallback to the
        cold path.  ``keys`` may be a lazy iterable; if consuming it
        mutates the ring (membership change mid-stream), the batch is
        abandoned with :class:`RingMutationError` rather than returning
        routes computed on a mix of memberships.
        """
        if not self._points:
            raise MembershipError("hash ring is empty")
        cache = self._cache
        if type(keys) is list:
            # Warm-cache fast path: a pure dict-read comprehension (no
            # side effects, so the ring cannot mutate mid-batch).
            try:
                owners = [cache[key] for key in keys]
            except KeyError:
                pass
            else:
                self.cache_hits += len(owners)
                return owners
        generation = self._generation
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
                # A membership change (even one triggered by consuming a
                # lazy ``keys`` iterable) clears the cache, so the first
                # post-mutation key always lands here -- checking the
                # generation only on misses still catches every torn
                # batch before a stale route can escape.
                if self._generation != generation:
                    raise RingMutationError(
                        "ring membership changed during an in-flight "
                        "lookup_many()"
                    )
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
        if self._generation != generation:
            raise RingMutationError(
                "ring membership changed during an in-flight lookup_many()"
            )
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
            "generation": self._generation,
        }

    def cached_routes(self) -> dict[str, str]:
        """Snapshot of the lookup cache (key -> owner).

        Read-only introspection for
        :func:`repro.check.invariants.check_ring`, which audits every
        cached route against :meth:`uncached_lookup`.
        """
        return dict(self._cache)

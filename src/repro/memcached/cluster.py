"""The distributed Memcached tier: a pool of nodes plus client-side routing.

The cluster mirrors the paper's deployment model: clients (the web tier)
hash keys onto the *active* membership via consistent hashing; Memcached
nodes themselves are unaware of key ownership.  Nodes can be deactivated
(removed from the ring) without being destroyed, which is what lets
CacheScale keep reading from retiring nodes as a "secondary cache" and what
lets ElMem migrate data off a node before turning it off.

:class:`RoutedCluster` is that surface, once: membership, ketama routing
and the routed client operations over any node type.  A facade supplies
two hooks -- build a node for a name, let go of a node that left the
pool.  :class:`MemcachedCluster` builds in-process
:class:`~repro.memcached.node.MemcachedNode` objects;
:class:`~repro.net.cluster.LiveCluster` attaches
:class:`~repro.net.cluster.RemoteNode` sockets.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any, Generic, Protocol, TypeVar

from repro.errors import MembershipError
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.node import MemcachedNode, NodeStats


class RoutedNode(Protocol):
    """The node operations :class:`RoutedCluster` routes onto."""

    @property
    def curr_items(self) -> int: ...
    def get(self, key: str, now: float) -> Any | None: ...
    def set(self, key: str, value: Any, value_size: int, now: float) -> bool: ...
    def delete(self, key: str) -> bool: ...
    def get_many(self, keys: Iterable[str], now: float) -> list[Any | None]: ...
    def set_many(
        self, entries: Iterable[tuple[str, Any, int]], now: float
    ) -> int: ...
    def delete_many(self, keys: Iterable[str]) -> int: ...


NodeT = TypeVar("NodeT", bound=RoutedNode)


class RoutedCluster(Generic[NodeT]):
    """A pool of nodes with ketama routing, generic over the node type.

    Subclasses set whatever :meth:`_build_node` reads, then call this
    constructor, which provisions every name in ``pool`` and puts the
    names in ``active`` on the ring.
    """

    ring: ConsistentHashRing
    """The active membership's ring: replaced on a change, never mutated."""

    def __init__(self, pool: Iterable[str], active: Iterable[str]) -> None:
        self.nodes: dict[str, NodeT] = {}
        for name in pool:
            self.provision(name)
        self.set_membership(active)

    def _build_node(self, name: str) -> NodeT:
        """A cold node for ``name`` (not yet in the pool or on the ring)."""
        raise NotImplementedError

    def _release_node(self, node: NodeT) -> None:
        """Let go of a node that just left the pool (flush, disconnect)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    @property
    def active_members(self) -> frozenset[str]:
        """Names of nodes currently on the hash ring."""
        return self.ring.members

    @property
    def active_nodes(self) -> list[NodeT]:
        """Node objects currently on the ring, sorted by name."""
        return [self.nodes[name] for name in sorted(self.ring.members)]

    def provision(self, name: str) -> NodeT:
        """Create a cold node in the pool (not yet on the ring)."""
        if name in self.nodes:
            raise MembershipError(f"node {name!r} already provisioned")
        node = self.nodes[name] = self._build_node(name)
        return node

    def activate(self, name: str) -> None:
        """Put a provisioned node onto the hash ring."""
        if name not in self.nodes:
            raise MembershipError(f"node {name!r} not provisioned")
        if name in self.ring:
            raise MembershipError(f"node {name!r} already on the ring")
        self._rebind(self.ring.members | {name})

    def deactivate(self, name: str) -> None:
        """Take a node off the ring; its data stays until :meth:`destroy`."""
        if name not in self.ring:
            raise MembershipError(f"node {name!r} not on the ring")
        self._rebind(self.ring.members - {name})

    def destroy(self, name: str) -> None:
        """Flush and delete a node from the pool (the VM is turned off)."""
        node = self.nodes.pop(name, None)
        if node is None:
            raise MembershipError(f"node {name!r} not provisioned")
        if name in self.ring:
            self._rebind(self.ring.members - {name})
        self._release_node(node)

    def set_membership(self, names: Iterable[str]) -> None:
        """Reset the ring to exactly ``names`` (all must be provisioned)."""
        names = list(names)
        missing = [name for name in names if name not in self.nodes]
        if missing:
            raise MembershipError(f"nodes not provisioned: {missing}")
        self._rebind(names)

    def _rebind(self, names: Iterable[str]) -> None:
        """Route on a new ring over ``names``; a batch already routing
        finishes on the ring it started on."""
        self.ring = ConsistentHashRing(names)

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def route(self, key: str) -> str:
        """Name of the active node responsible for ``key``."""
        return self.ring.node_for_key(key)

    def route_many(self, keys: Iterable[str]) -> list[str]:
        """Owning node per key, in order (the ring's cached batch lookup).

        Every key is routed on the ring in place when the call starts,
        even if consuming a lazy ``keys`` changes the membership.
        """
        return self.ring.lookup_many(keys)

    def get(self, key: str, now: float = 0.0) -> Any | None:
        """Routed ``get``; ``None`` on a miss."""
        return self.nodes[self.route(key)].get(key, now)

    def set(
        self, key: str, value: Any, value_size: int, now: float = 0.0
    ) -> bool:
        """Routed ``set``."""
        return self.nodes[self.route(key)].set(key, value, value_size, now)

    def delete(self, key: str) -> bool:
        """Routed ``delete``."""
        return self.nodes[self.route(key)].delete(key)

    def get_many(
        self, keys: Iterable[str], now: float = 0.0
    ) -> list[Any | None]:
        """Batched routed ``get``: one value (or ``None``) per key.

        Keys are routed in one batch and grouped per owning node, so the
        per-node loop amortizes routing, stats, and metric updates.  Per-
        node operation order follows request order, which keeps the cache
        state bit-identical to per-op :meth:`get` calls.
        """
        keys = list(keys)
        owners = self.route_many(keys)
        groups: dict[str, list[str]] = {}
        for key, owner in zip(keys, owners):
            bucket = groups.get(owner)
            if bucket is None:
                groups[owner] = [key]
            else:
                bucket.append(key)
        nodes = self.nodes
        if len(groups) == 1:
            return nodes[owners[0]].get_many(keys, now)
        cursors = {
            owner: iter(nodes[owner].get_many(bucket, now))
            for owner, bucket in groups.items()
        }
        return [next(cursors[owner]) for owner in owners]

    def set_many(
        self, entries: Iterable[tuple[str, Any, int]], now: float = 0.0
    ) -> int:
        """Batched routed ``set`` of ``(key, value, value_size)`` triples;
        returns how many stored."""
        entries = list(entries)
        owners = self.route_many([entry[0] for entry in entries])
        groups: dict[str, list[tuple[str, Any, int]]] = {}
        for entry, owner in zip(entries, owners):
            groups.setdefault(owner, []).append(entry)
        return sum(
            self.nodes[owner].set_many(batch, now)
            for owner, batch in groups.items()
        )

    def delete_many(self, keys: Iterable[str]) -> int:
        """Batched routed ``delete``; returns how many keys existed."""
        keys = list(keys)
        owners = self.route_many(keys)
        groups: dict[str, list[str]] = {}
        for key, owner in zip(keys, owners):
            groups.setdefault(owner, []).append(key)
        return sum(
            self.nodes[owner].delete_many(batch)
            for owner, batch in groups.items()
        )

    def multiget(
        self, keys: Iterable[str], now: float = 0.0
    ) -> tuple[dict[str, Any], list[str]]:
        """The web tier's multi-get: returns ``(hits, missed_keys)``.

        Served through the batched :meth:`get_many` fast path; hit/miss
        composition and ordering match the historical per-key loop.
        """
        keys = list(keys)
        hits: dict[str, Any] = {}
        misses: list[str] = []
        for key, value in zip(keys, self.get_many(keys, now)):
            if value is None:
                misses.append(key)
            else:
                hits[key] = value
        return hits, misses

    def total_items(self) -> int:
        """Items cached across active nodes."""
        return sum(node.curr_items for node in self.active_nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(active={sorted(self.ring.members)}, "
            f"pool={len(self.nodes)})"
        )


class MemcachedCluster(RoutedCluster[MemcachedNode]):
    """A pool of :class:`MemcachedNode` with ketama routing.

    Parameters
    ----------
    node_names:
        Names of the initially active nodes.
    memory_per_node:
        Cache bytes per node (the paper uses 4 GB VMs; simulations scale
        this down).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` handed to
        every node this cluster provisions, so command/eviction counters
        aggregate across membership changes.
    """

    def __init__(
        self,
        node_names: Iterable[str],
        memory_per_node: int,
        min_chunk: int = 96,
        growth_factor: float = 1.25,
        metrics: Any | None = None,
    ) -> None:
        self.memory_per_node = memory_per_node
        self._min_chunk = min_chunk
        self._growth_factor = growth_factor
        self._metrics = metrics
        names = list(node_names)
        super().__init__(names, names)

    def _build_node(self, name: str) -> MemcachedNode:
        return MemcachedNode(
            name,
            self.memory_per_node,
            min_chunk=self._min_chunk,
            growth_factor=self._growth_factor,
            metrics=self._metrics,
        )

    def _release_node(self, node: MemcachedNode) -> None:
        node.flush_all()

    def total_used_bytes(self) -> int:
        """Chunk-rounded bytes in use across active nodes."""
        return sum(node.used_bytes for node in self.active_nodes)

    def total_capacity_bytes(self) -> int:
        """Aggregate cache memory of the active membership."""
        return self.memory_per_node * len(self.ring)

    def aggregate_stats(self) -> NodeStats:
        """Sum of per-node counters over the whole pool."""
        total = NodeStats()
        for node in self.nodes.values():
            stats = node.stats
            total.get_hits += stats.get_hits
            total.get_misses += stats.get_misses
            total.sets += stats.sets
            total.deletes += stats.deletes
            total.evictions += stats.evictions
            total.expired += stats.expired
            total.too_large += stats.too_large
            total.imported += stats.imported
            total.import_merge_fallbacks += stats.import_merge_fallbacks
        return total

"""Structural interfaces between the control plane and the cache tier.

The Master, the migration policies, and the scoring step were written
against the in-process :class:`~repro.memcached.cluster.MemcachedCluster`;
the live TCP tier (:mod:`repro.net`) provides the same surface over
sockets.  These :class:`~typing.Protocol` classes pin down exactly which
slice of the cache tier the control plane is allowed to touch, so both
implementations satisfy one contract and the Master stays oblivious to
whether a node is a Python object or a socket away.

Everything is structural (no registration, no inheritance): an object
with the right attributes *is* a :class:`CacheNode`.  Members are
declared read-only wherever the control plane only reads them, which
lets implementations back them with plain attributes, properties, or
frozen dataclasses alike.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Protocol

from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.node import MigratedItem


class CacheItem(Protocol):
    """The item metadata planners read (via ``peek`` / MRU walks)."""

    @property
    def key(self) -> str: ...

    @property
    def last_access(self) -> float: ...

    @property
    def value_size(self) -> int: ...

    @property
    def value(self) -> Any: ...


class SlabClassView(Protocol):
    """Read-only geometry of one slab class."""

    @property
    def class_id(self) -> int: ...

    @property
    def chunk_size(self) -> int: ...

    @property
    def pages(self) -> int: ...

    @property
    def chunks_per_page(self) -> int: ...

    @property
    def total_chunks(self) -> int: ...


class SlabView(Protocol):
    """Read-only slab-allocator view (FuseCache capacity sizing)."""

    @property
    def classes(self) -> Sequence[SlabClassView]: ...

    @property
    def free_pages(self) -> int: ...


class CacheNode(Protocol):
    """One cache node as the Agent, the Master, and scoring see it.

    Implemented in-process by :class:`~repro.memcached.node.MemcachedNode`
    and over TCP by :class:`~repro.net.cluster.RemoteNode`.
    """

    @property
    def name(self) -> str: ...

    def __len__(self) -> int: ...

    @property
    def slabs(self) -> SlabView: ...

    def active_class_ids(self) -> list[int]: ...

    def dump_timestamps(self, class_id: int) -> list[tuple[str, float]]: ...

    def items_in_mru_order(self, class_id: int) -> Sequence[CacheItem]: ...

    def median_timestamp(self, class_id: int) -> float | None: ...

    def page_fractions(self) -> dict[int, float]: ...

    def peek(self, key: str) -> CacheItem | None: ...

    def get(self, key: str, now: float) -> Any | None: ...

    def set(
        self, key: str, value: Any, value_size: int, now: float
    ) -> bool: ...

    def delete(self, key: str) -> bool: ...

    def flush_all(self) -> None: ...

    def export_items(self, keys: Iterable[str]) -> list[MigratedItem]: ...

    def batch_import(
        self,
        migrated: Iterable[MigratedItem],
        mode: str = "merge",
        now: float = 0.0,
    ) -> int: ...


class CacheCluster(Protocol):
    """The cluster surface the Master and the policies drive.

    Implemented in-process by
    :class:`~repro.memcached.cluster.MemcachedCluster` and over TCP by
    :class:`~repro.net.cluster.LiveCluster`.
    """

    @property
    def nodes(self) -> Mapping[str, CacheNode]: ...

    @property
    def ring(self) -> ConsistentHashRing: ...

    @property
    def active_members(self) -> frozenset[str]: ...

    @property
    def active_nodes(self) -> Sequence[CacheNode]: ...

    # -- membership ------------------------------------------------------

    def provision(self, name: str) -> CacheNode: ...

    def activate(self, name: str) -> None: ...

    def deactivate(self, name: str) -> None: ...

    def destroy(self, name: str) -> None: ...

    def set_membership(self, names: Iterable[str]) -> None: ...

    # -- routing + client operations -------------------------------------

    def route(self, key: str) -> str: ...

    def route_many(self, keys: list[str]) -> list[str]: ...

    def get(self, key: str, now: float) -> Any | None: ...

    def set(
        self, key: str, value: Any, value_size: int, now: float
    ) -> bool: ...

    def delete(self, key: str) -> bool: ...

    def get_many(
        self, keys: Iterable[str], now: float
    ) -> list[Any | None]: ...

    def set_many(
        self, entries: Iterable[tuple[str, Any, int]], now: float
    ) -> int: ...

    def delete_many(self, keys: Iterable[str]) -> int: ...

    def multiget(
        self, keys: Iterable[str], now: float
    ) -> tuple[dict[str, Any], list[str]]: ...

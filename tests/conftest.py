"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from collections.abc import Iterator

import pytest

from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MemcachedNode
from repro.memcached.slab import PAGE_SIZE
from repro.net.cluster import LiveCluster
from repro.net.server import LiveClusterHarness


@pytest.fixture
def small_node() -> MemcachedNode:
    """A 4-page node, enough for a few thousand small items."""
    return MemcachedNode("n0", 4 * PAGE_SIZE)


@pytest.fixture
def small_cluster() -> MemcachedCluster:
    """Four 4-page nodes on a ketama ring."""
    names = [f"node-{i:03d}" for i in range(4)]
    return MemcachedCluster(names, 4 * PAGE_SIZE)


@pytest.fixture
def live_harness() -> Iterator[LiveClusterHarness]:
    """The servers behind :func:`live_small_cluster`."""
    names = [f"node-{i:03d}" for i in range(4)] + ["extra"]
    with LiveClusterHarness(names, 4 * PAGE_SIZE) as harness:
        yield harness


@pytest.fixture
def live_small_cluster(live_harness: LiveClusterHarness) -> Iterator[LiveCluster]:
    """:func:`small_cluster` over sockets: the same four names active.

    A live cluster can only provision registered endpoints, so the spare
    ``extra`` server is attached and let go again, which leaves it
    registered but unprovisioned the way the in-process pool starts.
    """
    names = [f"node-{i:03d}" for i in range(4)]
    with LiveCluster(live_harness.endpoints, active=names) as cluster:
        cluster.destroy("extra")
        yield cluster


def fill_node(
    node: MemcachedNode,
    count: int,
    value_size: int = 100,
    start_time: float = 0.0,
    prefix: str = "k",
) -> list[str]:
    """Insert ``count`` items with increasing timestamps; returns keys."""
    keys = []
    for i in range(count):
        key = f"{prefix}{i:08d}"
        assert node.set(key, f"v{i}", value_size, start_time + i)
        keys.append(key)
    return keys

"""Exact stack-distance computation via a Fenwick (binary indexed) tree.

The classic Mattson one-pass algorithm: remember each key's previous
access position; the stack distance is the number of *distinct* keys seen
since then, counted with a Fenwick tree over access positions in
``O(log M)`` per request.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

INFINITE = -1
"""Stack distance reported for a key's first (cold) access."""


class _FenwickTree:
    """Prefix-sum tree over request positions."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries in positions ``[0, index]``."""
        index += 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of entries in positions ``[lo, hi]``."""
        if lo > hi:
            return 0
        total = self.prefix_sum(hi)
        if lo > 0:
            total -= self.prefix_sum(lo - 1)
        return total


class StackDistanceProfiler:
    """Streaming exact stack distances for a bounded-length trace window.

    Parameters
    ----------
    capacity:
        Maximum number of requests the profiler will ingest; the Fenwick
        tree is sized once for this bound.  The AutoScaler recreates a
        profiler per monitoring window, matching the paper's "recent
        history of requests" design.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._tree = _FenwickTree(capacity)
        self._last_position: dict[str, int] = {}
        self._clock = 0
        self._histogram: list[int] = []
        self.cold_misses = 0

    @property
    def requests_seen(self) -> int:
        """Requests ingested so far."""
        return self._clock

    @property
    def unique_keys(self) -> int:
        """Distinct keys observed so far."""
        return len(self._last_position)

    def record(self, key: str) -> int:
        """Ingest one request and return its stack distance.

        Returns :data:`INFINITE` for a first access.  Raises
        :class:`OverflowError` past the construction-time capacity.
        """
        if self._clock >= self.capacity:
            raise OverflowError(
                f"profiler capacity {self.capacity} exhausted"
            )
        position = self._clock
        self._clock += 1
        previous = self._last_position.get(key)
        if previous is None:
            distance = INFINITE
            self.cold_misses += 1
        else:
            # Distinct keys touched strictly between the two accesses.
            distance = self._tree.range_sum(previous + 1, position - 1)
            self._tree.add(previous, -1)
            if distance >= len(self._histogram):
                self._histogram.extend(
                    [0] * (distance - len(self._histogram) + 1)
                )
            self._histogram[distance] += 1
        self._tree.add(position, 1)
        self._last_position[key] = position
        return distance

    def histogram(self) -> tuple[list[int], int]:
        """Distance histogram plus cold-miss count, for hit-rate curves."""
        return list(self._histogram), self.cold_misses


def stack_distances(trace: Iterable[str]) -> Iterator[int]:
    """Yield the exact stack distance of every request in ``trace``."""
    trace = list(trace)
    profiler = StackDistanceProfiler(max(1, len(trace)))
    for key in trace:
        yield profiler.record(key)


def naive_stack_distances(trace: Iterable[str]) -> Iterator[int]:
    """Quadratic reference implementation used by the property tests."""
    seen: list[str] = []
    for key in trace:
        if key in seen:
            index = seen.index(key)
            # Keys above `key` on the LRU stack are the distinct keys
            # touched since its last access.
            yield len(seen) - index - 1
            seen.pop(index)
        else:
            yield INFINITE
        seen.append(key)


def distance_histogram(
    distances: Iterable[int], max_distance: int | None = None
) -> tuple[list[int], int]:
    """Aggregate distances into ``(histogram, cold_misses)``.

    ``histogram[d]`` counts requests with stack distance ``d``;  cold
    (infinite) accesses are returned separately.  ``max_distance`` bounds
    the histogram length; deeper accesses are clamped into the last bin + 1
    semantics by extending the list as needed when it is ``None``.
    """
    histogram: list[int] = [] if max_distance is None else [0] * (max_distance + 1)
    cold = 0
    for distance in distances:
        if distance == INFINITE:
            cold += 1
            continue
        if max_distance is not None:
            distance = min(distance, max_distance)
        if distance >= len(histogram):
            histogram.extend([0] * (distance - len(histogram) + 1))
        histogram[distance] += 1
    return histogram, cold

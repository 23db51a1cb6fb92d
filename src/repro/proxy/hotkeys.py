"""Hot-key detection and replica bookkeeping for the proxy tier.

A handful of keys dominating the request stream is the canonical
Memcached failure mode: the single node owning them saturates while the
rest of the fleet idles.  Production routers (mcrouter, Twemproxy
deployments, SPORE) answer with *hot-key replication*: detect the top
keys and serve their reads from R replicas instead of one primary.

:class:`HotKeyDetector` is a bounded frequency counter: every
observation is tallied, and the whole table decays (halves) every
:data:`DECAY_EVERY` tallies so yesterday's spike does not pin today's
replica set.  Deliberately deterministic -- same observation stream,
same verdicts -- so storm tests are exactly reproducible.

:class:`ReplicaRegistry` tracks which keys are currently promoted and
onto which backends.  Placement is the router's job (it walks the ring's
member list); the registry only records and exposes the mapping, drops
entries when membership changes, and keeps the promoted set bounded by
``max_hot_keys``.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigurationError
from repro.obs import NULL_TELEMETRY, Telemetry


DECAY_EVERY = 10_000
"""Tallies between two decay sweeps (every count halves)."""

MAX_TRACKED = 4096
"""Hard cap on tracked keys: when full, never-seen keys are not admitted
until a decay sweep frees space (hot keys, by definition, are already
in the table)."""


class HotKeyDetector:
    """Decaying per-key frequency counter with a bounded table.

    Parameters
    ----------
    promote_threshold:
        Count at which a key is reported hot.
    """

    def __init__(self, promote_threshold: int = 32) -> None:
        if promote_threshold < 1:
            raise ConfigurationError("promote_threshold must be >= 1")
        self.promote_threshold = promote_threshold
        self._counts: dict[str, int] = {}
        self._tallies = 0

    def observe(self, key: str) -> bool:
        """Record one access; returns True when ``key`` is currently hot."""
        if key in self._counts:
            self._counts[key] += 1
        elif len(self._counts) < MAX_TRACKED:
            self._counts[key] = 1
        self._tallies += 1
        if self._tallies >= DECAY_EVERY:
            self.decay()
        return self.is_hot(key)

    def decay(self) -> None:
        """Halve every count and drop the zeros."""
        self._tallies = 0
        self._counts = {
            key: count // 2
            for key, count in self._counts.items()
            if count // 2 > 0
        }

    def is_hot(self, key: str) -> bool:
        """Whether ``key``'s count has crossed the threshold."""
        return self._counts.get(key, 0) >= self.promote_threshold

    def count(self, key: str) -> int:
        """Current count for ``key``."""
        return self._counts.get(key, 0)


class ReplicaRegistry:
    """Which hot keys are replicated, and onto which backends.

    The registry never serves data; it only answers "where else might
    this key live?" for the router's read fan-out and write-through
    invalidation.
    """

    def __init__(
        self,
        max_hot_keys: int = 8,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_hot_keys < 1:
            raise ConfigurationError("max_hot_keys must be >= 1")
        self.max_hot_keys = max_hot_keys
        self._replicas: dict[str, tuple[str, ...]] = {}
        metrics = (telemetry or NULL_TELEMETRY).metrics
        self._m_hot = metrics.gauge(
            "proxy_hot_keys", "Keys currently promoted to replicas"
        )
        self._m_promotions = metrics.counter(
            "proxy_replica_promotions_total",
            "Hot keys promoted to a replica set",
        )
        self._m_demotions = metrics.counter(
            "proxy_replica_demotions_total",
            "Hot keys dropped from the replica table",
        )

    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, key: str) -> bool:
        return key in self._replicas

    @property
    def full(self) -> bool:
        """True when no further key can be promoted."""
        return len(self._replicas) >= self.max_hot_keys

    def replicas_for(self, key: str) -> tuple[str, ...]:
        """Replica backends for ``key`` (empty when not promoted)."""
        return self._replicas.get(key, ())

    def promote(self, key: str, replicas: Iterable[str]) -> None:
        """Register ``key`` as replicated onto ``replicas``."""
        targets = tuple(replicas)
        if not targets:
            return
        if key not in self._replicas and self.full:
            return
        if key not in self._replicas:
            self._m_promotions.inc()
        self._replicas[key] = targets
        self._m_hot.set(len(self._replicas))

    def demote(self, key: str) -> None:
        """Forget ``key``'s replicas."""
        if self._replicas.pop(key, None) is not None:
            self._m_demotions.inc()
            self._m_hot.set(len(self._replicas))

    def retain_backends(self, members: Iterable[str]) -> None:
        """Drop replica entries that reference departed backends.

        Called on membership switches: a replica set naming a retired
        node is no longer trustworthy, so the whole entry goes (the key
        will be re-promoted if it is still hot).
        """
        live = frozenset(members)
        stale = [
            key
            for key, replicas in self._replicas.items()
            if any(backend not in live for backend in replicas)
        ]
        for key in stale:
            self.demote(key)

    def clear(self) -> None:
        """Drop every promotion."""
        for key in list(self._replicas):
            self.demote(key)

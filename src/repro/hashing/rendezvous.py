"""Rendezvous (highest-random-weight) hashing.

An alternative placement function used in the ablation benchmarks: it gives
perfectly minimal remapping on membership change at the cost of O(k) lookup
per key, versus the ring's O(log k·vnodes).

It is a :class:`~repro.hashing.ketama.Placement` like the ketama ring: a
value built once from its members, behind the same bounded lookup cache
(the only routing cache; the O(k) scan is even more expensive than the
ring's binary search, so caching pays off sooner).  It supplies only the
cold path.
"""

from __future__ import annotations

from repro.errors import MembershipError
from repro.hashing.hashutil import hash64
from repro.hashing.ketama import Placement


class RendezvousHash(Placement):
    """Highest-random-weight key-to-node mapping over named nodes."""

    def uncached_lookup(self, key: str) -> str:
        """The member with the highest combined hash for ``key``."""
        if not self._members:
            raise MembershipError("no members")
        return max(self._members, key=lambda node: hash64(f"{node}:{key}"))

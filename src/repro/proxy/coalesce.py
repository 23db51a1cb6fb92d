"""In-flight get coalescing: one backend fetch per hot key.

When many clients miss on the same key at the same moment, a naive
proxy forwards every one of them -- the *thundering herd* that turns a
single hot-key expiry into a backend (and ultimately database) storm.
:class:`GetCoalescer` collapses those concurrent fetches: the first
request to :meth:`~GetCoalescer.claim` a key becomes its **leader** and
actually goes to the backend; every request that claims it while the
leader is in flight becomes a **follower** and simply awaits the same
future.

The coalescer is one in-flight table behind a claim/settle pair, so a
multiget can lead some of its keys and follow others in one call.  It
is deliberately memoryless: the moment a key is settled it leaves the
table, so sequential requests are never served a cached answer -- this
is request collapsing, not a cache.  Whoever leads a key *must* settle
it, with a value or with the error that ended the fetch (followers
would all have hit the same backend), and a cancelled waiter never
cancels the shared future.

``proxy_coalesce_leaders_total`` / ``proxy_coalesce_followers_total``
count the split; the hot-key-storm test asserts the follower share --
the *collapse ratio* -- stays above 90%.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS


class GetCoalescer:
    """Collapses concurrent same-key fetches behind one leader."""

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self._inflight: dict[str, asyncio.Future] = {}
        metrics = (telemetry or NULL_TELEMETRY).metrics
        self._m_leaders = metrics.counter(
            "proxy_coalesce_leaders_total",
            "Key fetches that actually went to a backend",
        )
        self._m_followers = metrics.counter(
            "proxy_coalesce_followers_total",
            "Key fetches collapsed onto an in-flight leader",
        )
        self._m_wait = metrics.histogram(
            "proxy_coalesce_wait_seconds",
            "Time followers spend awaiting an in-flight leader fetch",
            buckets=LATENCY_SECONDS_BUCKETS,
        )

    @property
    def inflight(self) -> int:
        """Number of keys with a leader fetch currently in flight."""
        return len(self._inflight)

    def claim(self, key: str) -> tuple[asyncio.Future, bool]:
        """``(future, leads)`` for one fetch of ``key``.

        The first claimant of an idle key leads: it owes the table one
        :meth:`settle` for that key.  Claimants arriving before then
        follow the same future without touching the backend.
        """
        pending = self._inflight.get(key)
        if pending is not None:
            self._m_followers.inc()
            return pending, False
        self._m_leaders.inc()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        return future, True

    def settle(
        self,
        key: str,
        value: Any = None,
        error: BaseException | None = None,
    ) -> None:
        """Resolve ``key``'s in-flight fetch for the leader and followers."""
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if error is None:
            future.set_result(value)
        else:
            future.set_exception(error)
            # Mark the exception retrieved so a leader nobody awaits any
            # more does not log "exception never retrieved".
            future.exception()

    async def wait(self, future: asyncio.Future) -> Any:
        """A follower's (timed) wait for the leader's outcome."""
        # shield(): a follower timing out / being cancelled must not
        # cancel the shared future out from under everyone else.
        start = time.perf_counter()
        try:
            return await asyncio.shield(future)
        finally:
            self._m_wait.observe(time.perf_counter() - start)

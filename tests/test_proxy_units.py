"""Unit tests for the proxy tier's building blocks.

Everything here is event-loop-local (``asyncio.run``) or purely
synchronous -- the router's read path runs against node servers on the
same loop, so round trips are counted, not simulated; the tests that
cross threads and a proxy listener live in ``test_proxy_live.py``.
"""

import asyncio
import contextlib
import time

import pytest

from repro.core.retry import RetryPolicy
from repro.errors import ConfigurationError, WireProtocolError
from repro.hashing.ketama import ConsistentHashRing
from repro.memcached.node import MemcachedNode
from repro.memcached.slab import PAGE_SIZE
from repro.net.server import NodeServer
from repro.obs import CURRENT_CONTEXT, create_telemetry
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS
from repro.proxy.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.proxy import hotkeys
from repro.proxy.coalesce import GetCoalescer
from repro.proxy.hotkeys import HotKeyDetector, ReplicaRegistry
from repro.proxy.router import ProxyConfig, ProxyRouter


class StepClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = StepClock()
        telemetry = create_telemetry()
        breaker = CircuitBreaker(
            "n0", clock=clock, telemetry=telemetry, **kwargs
        )
        return breaker, clock, telemetry.metrics

    def test_starts_closed_and_allows(self):
        breaker, _, metrics = self.make()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert (
            metrics.gauge("proxy_breaker_state", backend="n0").value == 0
        )

    def test_trips_open_after_threshold_consecutive_failures(self):
        breaker, _, metrics = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        # A success resets the consecutive count.
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert (
            metrics.gauge("proxy_breaker_state", backend="n0").value == 1
        )
        assert (
            metrics.counter(
                "proxy_breaker_transitions_total", backend="n0", to=OPEN
            ).value
            == 1
        )

    def test_open_rejects_and_counts(self):
        breaker, _, metrics = self.make(failure_threshold=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert (
            metrics.counter(
                "proxy_breaker_rejections_total", backend="n0"
            ).value
            == 2
        )

    def test_half_open_after_duration_single_probe_slot(self):
        breaker, clock, _ = self.make(
            failure_threshold=1, open_duration_s=1.0
        )
        breaker.record_failure()
        clock.now = 0.5
        assert not breaker.allow()
        clock.now = 1.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # claims the probe slot
        assert not breaker.allow()  # slot taken

    def test_probe_success_closes(self):
        breaker, clock, metrics = self.make(
            failure_threshold=1, open_duration_s=1.0, close_after=1
        )
        breaker.record_failure()
        clock.now = 1.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert (
            metrics.counter(
                "proxy_breaker_transitions_total", backend="n0", to=CLOSED
            ).value
            == 1
        )

    def test_probe_failure_reopens_and_restarts_timer(self):
        breaker, clock, _ = self.make(
            failure_threshold=1, open_duration_s=1.0
        )
        breaker.record_failure()
        clock.now = 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now = 1.5  # only 0.5s since the re-open
        assert not breaker.allow()
        clock.now = 2.0
        assert breaker.allow()

    def test_close_after_requires_consecutive_probe_successes(self):
        breaker, clock, _ = self.make(
            failure_threshold=1, open_duration_s=1.0, close_after=2
        )
        breaker.record_failure()
        clock.now = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_reset_forces_closed(self):
        breaker, _, _ = self.make(failure_threshold=1)
        breaker.record_failure()
        assert breaker.state == OPEN
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker("n0", failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker("n0", open_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker("n0", close_after=0)


class TestGetCoalescer:
    """The claim/settle surface, by the names its loader-callback
    predecessor's tests had."""

    def test_concurrent_same_key_fetches_share_one_loader_call(self):
        async def scenario():
            telemetry = create_telemetry()
            coalescer = GetCoalescer(telemetry)
            claims = [coalescer.claim("k") for _ in range(10)]
            assert [leads for _, leads in claims] == [True] + [False] * 9
            assert len({id(future) for future, _ in claims}) == 1
            waiters = [
                asyncio.ensure_future(coalescer.wait(future))
                for future, _ in claims
            ]
            await asyncio.sleep(0)  # let every wait register
            assert coalescer.inflight == 1
            coalescer.settle("k", (0, b"value"))
            assert coalescer.inflight == 0
            return await asyncio.gather(*waiters), telemetry.metrics

        results, metrics = asyncio.run(scenario())
        assert results == [(0, b"value")] * 10
        assert metrics.counter("proxy_coalesce_leaders_total").value == 1
        assert metrics.counter("proxy_coalesce_followers_total").value == 9

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            coalescer = GetCoalescer()
            (a, a_leads), (b, b_leads) = (
                coalescer.claim("a"),
                coalescer.claim("b"),
            )
            assert a_leads and b_leads and a is not b
            coalescer.settle("b", "b")
            coalescer.settle("a", "a")
            return [a.result(), b.result()]

        assert asyncio.run(scenario()) == ["a", "b"]

    def test_leader_failure_propagates_to_followers(self):
        async def scenario():
            coalescer = GetCoalescer()
            waiters = [
                asyncio.ensure_future(coalescer.wait(coalescer.claim("k")[0]))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            coalescer.settle("k", error=RuntimeError("backend died"))
            assert coalescer.inflight == 0
            return await asyncio.gather(*waiters, return_exceptions=True)

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_memoryless_sequential_fetches_each_lead(self):
        async def scenario():
            telemetry = create_telemetry()
            coalescer = GetCoalescer(telemetry)
            for _ in range(2):
                future, leads = coalescer.claim("k")
                assert leads
                coalescer.settle("k", 1)
                assert future.result() == 1
            coalescer.settle("k", 2)  # nothing in flight: a no-op
            return telemetry.metrics

        metrics = asyncio.run(scenario())
        assert metrics.counter("proxy_coalesce_leaders_total").value == 2
        assert metrics.counter("proxy_coalesce_followers_total").value == 0

    def test_cancelled_follower_does_not_cancel_leader(self):
        async def scenario():
            coalescer = GetCoalescer()
            future, _ = coalescer.claim("k")
            follower = asyncio.ensure_future(
                coalescer.wait(coalescer.claim("k")[0])
            )
            await asyncio.sleep(0)
            follower.cancel()
            await asyncio.sleep(0)
            assert follower.cancelled()
            assert not future.done()
            coalescer.settle("k", "ok")
            return future.result()

        assert asyncio.run(scenario()) == "ok"


class TestHotKeyDetector:
    def test_promotes_at_threshold(self):
        detector = HotKeyDetector(promote_threshold=3)
        assert not detector.observe("k")
        assert not detector.observe("k")
        assert detector.observe("k")
        assert detector.is_hot("k")
        assert not detector.is_hot("other")

    def test_decay_halves_and_drops_zeros(self):
        detector = HotKeyDetector(promote_threshold=10)
        for _ in range(8):
            detector.observe("hot")
        detector.observe("cold")
        detector.decay()
        assert detector.count("hot") == 4
        assert detector.count("cold") == 0
        assert not detector.is_hot("hot")

    def test_automatic_decay_cadence(self, monkeypatch):
        monkeypatch.setattr(hotkeys, "DECAY_EVERY", 10)
        detector = HotKeyDetector(promote_threshold=100)
        for _ in range(10):
            detector.observe("k")
        # The tenth tally triggered a decay sweep: 10 // 2 = 5.
        assert detector.count("k") == 5

    def test_max_tracked_admission_cap(self, monkeypatch):
        monkeypatch.setattr(hotkeys, "MAX_TRACKED", 2)
        detector = HotKeyDetector(promote_threshold=2)
        detector.observe("a")
        detector.observe("b")
        detector.observe("c")  # table full; not admitted
        assert detector.count("c") == 0
        assert detector.observe("a")  # existing keys still tallied

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HotKeyDetector(promote_threshold=0)


class TestReplicaRegistry:
    def test_promote_demote_roundtrip(self):
        telemetry = create_telemetry()
        registry = ReplicaRegistry(max_hot_keys=2, telemetry=telemetry)
        registry.promote("k", ("n1", "n2"))
        assert "k" in registry
        assert registry.replicas_for("k") == ("n1", "n2")
        registry.demote("k")
        assert "k" not in registry
        assert registry.replicas_for("k") == ()
        metrics = telemetry.metrics
        assert metrics.counter("proxy_replica_promotions_total").value == 1
        assert metrics.counter("proxy_replica_demotions_total").value == 1

    def test_capacity_bound(self):
        registry = ReplicaRegistry(max_hot_keys=1)
        registry.promote("a", ("n1",))
        registry.promote("b", ("n1",))  # full; ignored
        assert registry.full
        assert "b" not in registry
        # Re-promoting an existing key is always allowed.
        registry.promote("a", ("n2",))
        assert registry.replicas_for("a") == ("n2",)

    def test_retain_backends_drops_stale_entries(self):
        registry = ReplicaRegistry(max_hot_keys=4)
        registry.promote("a", ("n1",))
        registry.promote("b", ("n2", "n3"))
        registry.retain_backends(["n1", "n2"])  # n3 departed
        assert "a" in registry
        assert "b" not in registry

    def test_empty_promotion_is_ignored(self):
        registry = ReplicaRegistry()
        registry.promote("a", ())
        assert "a" not in registry


class TestProxyConfig:
    def test_rejects_negative_replication(self):
        with pytest.raises(ConfigurationError):
            ProxyConfig(replication_factor=-1)

    def test_router_requires_backends(self):
        with pytest.raises(ConfigurationError):
            ProxyRouter({})

    def test_router_rejects_unknown_active_names(self):
        from repro.errors import MembershipError

        with pytest.raises(MembershipError):
            ProxyRouter(
                {"n0": ("127.0.0.1", 1)}, active=["n0", "ghost"]
            )

    def test_replica_targets_walk_the_ring_members(self):
        endpoints = {
            f"n{i}": ("127.0.0.1", 1000 + i) for i in range(4)
        }
        router = ProxyRouter(
            endpoints, config=ProxyConfig(replication_factor=2)
        )
        targets = router._replica_targets("n1")
        assert len(targets) == 2
        assert "n1" not in targets

    def test_single_backend_has_no_replica_targets(self):
        router = ProxyRouter(
            {"n0": ("127.0.0.1", 1)},
            config=ProxyConfig(replication_factor=2),
        )
        assert router._replica_targets("n0") == ()


class TestMembershipUpdate:
    """``update_membership`` swaps in a new ring; only a backend that
    (re)joins it gets a fresh breaker verdict."""

    def make_router(self):
        endpoints = {f"n{i}": ("127.0.0.1", 1000 + i) for i in range(3)}
        return ProxyRouter(
            endpoints, config=ProxyConfig(failure_threshold=1)
        )

    def test_a_retained_open_breaker_stays_open(self):
        router = self.make_router()
        old_ring = router.ring
        router.breakers["n1"].record_failure()
        assert router.breakers["n1"].state == OPEN
        asyncio.run(router.update_membership(["n0", "n1"]))
        assert router.breakers["n1"].state == OPEN
        assert router.ring.members == {"n0", "n1"}
        assert old_ring.members == {"n0", "n1", "n2"}

    def test_a_rejoining_backend_gets_a_fresh_breaker(self):
        router = self.make_router()
        asyncio.run(router.update_membership(["n0", "n1"]))
        router.breakers["n1"].record_failure()
        router.breakers["n2"].record_failure()
        asyncio.run(router.update_membership(["n0", "n1", "n2"]))
        assert router.breakers["n2"].state == CLOSED
        assert router.breakers["n1"].state == OPEN


# ----------------------------------------------------------------------
# Router read path: one loop, real node servers, real round trips
# ----------------------------------------------------------------------

FAST = dict(
    timeout_s=0.3,
    retry=RetryPolicy(max_attempts=1),
    failure_threshold=2,
    open_duration_s=30.0,
)


@contextlib.asynccontextmanager
async def live_router(names, **config):
    """A router over in-loop node servers: ``(router, servers)``."""
    servers = {
        name: await NodeServer(
            MemcachedNode(name, 8 * PAGE_SIZE), time.monotonic
        ).start()
        for name in names
    }
    router = ProxyRouter(
        {name: server.endpoint for name, server in servers.items()},
        config=ProxyConfig(**{**FAST, **config}),
    )
    try:
        yield router, servers
    finally:
        await router.close()
        for server in servers.values():
            await server.stop()


def counter(router, name, **labels):
    return router.telemetry.metrics.counter(name, **labels).value


def round_trips(router):
    return sum(
        counter(router, "net_client_requests_total", node=name)
        for name in router.breakers
    )


def keys_owned_by(router, backend, count, prefix="k"):
    owned = (
        f"{prefix}{i}"
        for i in range(10_000)
        if router.primary_for(f"{prefix}{i}") == backend
    )
    return [next(owned) for _ in range(count)]


async def settle_background(router):
    while router._background:
        await asyncio.gather(*router._background, return_exceptions=True)


async def promote(router, key):
    """Read ``key`` until the detector promotes it; its replicas."""
    for _ in range(40):
        assert await router.get(key) is not None
        if router.replicas.replicas_for(key):
            await settle_background(router)
            return router.replicas.replicas_for(key)
    raise AssertionError("key was never promoted")


class SlowReplies:
    """A socket fault policy delaying every chunk a server answers."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def disposition(self, node):
        return "delay", self.delay_s


async def black_hole():
    """A listener that accepts, reads, and never answers."""

    async def swallow(reader, writer):
        try:
            await reader.read()
        finally:
            writer.close()

    return await asyncio.start_server(swallow, "127.0.0.1", 0)


class TestRouterMultiget:
    def test_one_round_trip_per_backend_touched(self):
        async def scenario():
            async with live_router(["n0", "n1"]) as (router, _):
                keys = keys_owned_by(router, "n0", 4) + keys_owned_by(
                    router, "n1", 4
                )
                for key in keys[::2]:
                    assert await router.set(key, key.encode())
                before = round_trips(router)
                values = await router.get_many(keys)
                assert round_trips(router) - before == 2
                assert values == [
                    (0, key.encode()) if i % 2 == 0 else None
                    for i, key in enumerate(keys)
                ]
                assert counter(router, "proxy_requests_total", op="get") == 8
                assert counter(router, "proxy_coalesce_leaders_total") == 8
                # Keys of one backend only: one round trip.
                await router.get_many(keys[:4])
                assert round_trips(router) - before == 3
                # The single-key get is the same path.
                assert await router.get(keys[0]) == (0, keys[0].encode())
                assert round_trips(router) - before == 4

        asyncio.run(scenario())

    def test_promoted_key_rides_in_its_replicas_batch(self):
        async def scenario():
            async with live_router(
                ["n0", "n1"], promote_threshold=3
            ) as (router, _):
                (hot,) = keys_owned_by(router, "n0", 1, prefix="hot")
                others = keys_owned_by(router, "n0", 2) + keys_owned_by(
                    router, "n1", 2
                )
                for key in [hot, *others]:
                    assert await router.set(key, b"v")
                assert await promote(router, hot) == ("n1",)
                before = round_trips(router)
                fanouts = counter(router, "proxy_fanout_reads_total")
                values = await router.get_many([hot, *others])
                await settle_background(router)
                assert values == [(0, b"v")] * 5
                # n1's batch carried the hot key's replica read for free.
                assert round_trips(router) - before == 2
                assert (
                    counter(router, "proxy_fanout_reads_total") - fanouts == 1
                )

        asyncio.run(scenario())

    def test_duplicate_keys_in_one_call(self):
        async def scenario():
            async with live_router(["n0", "n1"]) as (router, _):
                assert await router.set("a", b"1")
                assert await router.set("b", b"2")
                before = round_trips(router)
                values = await router.get_many(["a", "b", "a", "ghost", "a"])
                assert values == [
                    (0, b"1"),
                    (0, b"2"),
                    (0, b"1"),
                    None,
                    (0, b"1"),
                ]
                assert counter(router, "proxy_requests_total", op="get") == 5
                assert counter(router, "proxy_coalesce_leaders_total") == 3
                assert counter(router, "proxy_coalesce_followers_total") == 2
                assert round_trips(router) - before <= 2
                assert router.coalescer.inflight == 0

        asyncio.run(scenario())

    def test_overlapping_calls_share_one_leader_per_key(self):
        async def scenario():
            async with live_router(["n0", "n1"]) as (router, _):
                for key in "abcd":
                    assert await router.set(key, key.encode())
                before = round_trips(router)
                first, second = await asyncio.gather(
                    router.get_many(["a", "b", "c"]),
                    router.get_many(["b", "c", "d", "ghost"]),
                )
                assert first == [(0, b"a"), (0, b"b"), (0, b"c")]
                assert second == [(0, b"b"), (0, b"c"), (0, b"d"), None]
                assert counter(router, "proxy_coalesce_leaders_total") == 5
                assert counter(router, "proxy_coalesce_followers_total") == 2
                # b and c crossed the wire once, in the first call's batches.
                assert round_trips(router) - before <= 4
                assert router.coalescer.inflight == 0

        asyncio.run(scenario())

    def test_cancelled_leader_strands_no_follower(self):
        async def scenario():
            async with live_router(["n0", "n1"]) as (router, _):
                assert await router.set("a", b"1")
                leader = asyncio.ensure_future(router.get_many(["a", "b"]))
                await asyncio.sleep(0)  # claimed, batches spawned
                assert router.coalescer.inflight == 2
                follower = asyncio.ensure_future(router.get_many(["a"]))
                await asyncio.sleep(0)
                leader.cancel()
                assert await asyncio.wait_for(follower, 5.0) == [(0, b"1")]
                await settle_background(router)
                assert leader.cancelled()
                assert router.coalescer.inflight == 0
                assert counter(router, "proxy_coalesce_followers_total") == 1

        asyncio.run(scenario())

    def test_failing_batch_fails_leader_and_followers_alike(self):
        async def scenario():
            async def garble(reader, writer):
                await reader.read(1)
                writer.write(b"SERVER_ERROR out of order\r\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(garble, "127.0.0.1", 0)
            endpoint = server.sockets[0].getsockname()[:2]
            router = ProxyRouter(
                {"n0": endpoint}, config=ProxyConfig(**FAST)
            )
            try:
                calls = [
                    asyncio.ensure_future(router.get_many(keys))
                    for keys in (["a", "b"], ["b"], ["a", "c"])
                ]
                results = await asyncio.wait_for(
                    asyncio.gather(*calls, return_exceptions=True), 5.0
                )
                await settle_background(router)
                assert router.coalescer.inflight == 0
                assert router.breakers["n0"].state == CLOSED
                return results
            finally:
                await router.close()
                server.close()
                await server.wait_closed()

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, WireProtocolError) for r in results)

    def test_empty_ring_and_open_breakers_degrade_every_key(self):
        async def scenario():
            async with live_router(["n0", "n1"]) as (router, _):
                keys = keys_owned_by(router, "n0", 3) + keys_owned_by(
                    router, "n1", 2
                )
                for breaker in router.breakers.values():
                    breaker.record_failure()
                    breaker.record_failure()
                    assert breaker.state == OPEN
                before = round_trips(router)
                assert await router.get_many(keys) == [None] * 5
                assert round_trips(router) == before
                assert counter(router, "proxy_degraded_total", op="get") == 5
                # Consulted once per backend, not once per key.
                for name in router.breakers:
                    assert (
                        counter(
                            router,
                            "proxy_breaker_rejections_total",
                            backend=name,
                        )
                        == 1
                    )
                assert router.coalescer.inflight == 0
                router.ring = ConsistentHashRing([])
                assert await router.get_many(keys) == [None] * 5
                assert counter(router, "proxy_degraded_total", op="get") == 10
                assert counter(router, "proxy_requests_total", op="get") == 10

        asyncio.run(scenario())

    def test_breaker_hears_one_outcome_per_batch(self):
        async def scenario():
            async with live_router(["n0", "n1"]) as (router, servers):
                keys = keys_owned_by(router, "n1", 6)
                await servers["n1"].stop()
                assert await router.get_many(keys) == [None] * 6
                # Six keys, one failed round trip, one failure recorded.
                assert router.breakers["n1"].state == CLOSED
                assert await router.get_many(keys) == [None] * 6
                assert router.breakers["n1"].state == OPEN
                # A success is one outcome too: half-open closes on it.
                probe = CircuitBreaker("n0", failure_threshold=1)
                probe.record_failure()
                probe._opened_at -= probe.open_duration_s
                router.breakers["n0"] = probe
                assert probe.state == HALF_OPEN
                await router.get_many(keys_owned_by(router, "n0", 6))
                assert probe.state == CLOSED

        asyncio.run(scenario())

    def test_black_holed_primary_answers_at_replica_speed(self):
        async def scenario():
            async with live_router(
                ["n0", "n1"], promote_threshold=3, failure_threshold=1
            ) as (router, _):
                (hot,) = keys_owned_by(router, "n0", 1, prefix="hot")
                assert await router.set(hot, b"v")
                assert await promote(router, hot) == ("n1",)
                hole = await black_hole()
                await router.clients.pop("n0").close()
                router._endpoints["n0"] = hole.sockets[0].getsockname()[:2]
                try:
                    start = time.perf_counter()
                    assert await router.get(hot) == (0, b"v")
                    assert time.perf_counter() - start < FAST["timeout_s"] / 2
                    # The primary's batch is parked, not cancelled, and
                    # its timeout still reaches the breaker.
                    parked = [t for t in router._background if not t.done()]
                    assert len(parked) == 1
                    assert router.breakers["n0"].state == CLOSED
                    await settle_background(router)
                    assert router.breakers["n0"].state == OPEN
                    assert router.coalescer.inflight == 0
                finally:
                    hole.close()
                    await hole.wait_closed()

        asyncio.run(scenario())

    def test_route_histogram_counts_commands_and_span_counts_keys(self):
        async def scenario():
            telemetry = create_telemetry("unit-proxy", trace_sample=1.0)
            async with live_router(["n0", "n1"]) as (router, _):
                keys = keys_owned_by(router, "n0", 3) + keys_owned_by(
                    router, "n1", 2
                )
                await router.get_many(keys)
                await router.get(keys[0])
                route = router.telemetry.metrics.histogram(
                    "proxy_route_seconds",
                    buckets=LATENCY_SECONDS_BUCKETS,
                    op="get",
                )
                assert route.count == 2  # one per command, not per key
                # Under a trace the batches' client.rpc spans say how
                # many keys each carried.
                traced = ProxyRouter(
                    router._endpoints, telemetry=telemetry
                )
                root = telemetry.tracer.start_trace("proxy.get")

                async def under_trace():
                    CURRENT_CONTEXT.set(root.context)  # dies with the task
                    await traced.get_many(keys)

                try:
                    await asyncio.ensure_future(under_trace())
                    # An untraced call stamps nothing on older spans.
                    await traced.get_many(keys[:1])
                finally:
                    await traced.close()
                assert {
                    span.attributes["node"]: span.attributes["keys"]
                    for span in telemetry.tracer.spans
                    if span.name == "client.rpc"
                } == {"n0": 3, "n1": 2}

        asyncio.run(scenario())


class TestStaleReplicaRace:
    """A write routed while a promotion or read repair is still copying
    an older value must not leave that copy registered (ROADMAP 4(a))."""

    @staticmethod
    def hold_set(router, backend, before):
        """Gate ``backend``'s next ``set``: ``(reached, release)``.

        ``before`` holds the copy ahead of the wire write, else after it
        landed; either way the caller has not seen it complete.
        """
        client = router.client(backend)
        original = client.set
        reached, release = asyncio.Event(), asyncio.Event()

        async def gated(*args, **kwargs):
            client.set = original
            if before:
                reached.set()
                await release.wait()
                return await original(*args, **kwargs)
            stored = await original(*args, **kwargs)
            reached.set()
            await release.wait()
            return stored

        client.set = gated
        return reached, release

    @staticmethod
    async def assert_no_stale_copy(router, key, fresh):
        for backend in router.replicas.replicas_for(key):
            assert await router.client(backend).get(key) in (None, fresh)
        for _ in range(5):
            assert await router.get(key) == fresh
            await settle_background(router)

    def test_write_during_promotion_voids_the_copy(self):
        async def scenario():
            async with live_router(
                ["n0", "n1"], promote_threshold=3
            ) as (router, _):
                (key,) = keys_owned_by(router, "n0", 1, prefix="hot")
                assert await router.set(key, b"old")
                reached, release = self.hold_set(router, "n1", before=False)
                promotion = asyncio.ensure_future(router._promote(key, "n0"))
                await asyncio.wait_for(reached.wait(), 5.0)
                # The copy has landed but is not registered: this write
                # finds no replica to invalidate.
                assert await router.set(key, b"new")
                release.set()
                await promotion
                await self.assert_no_stale_copy(router, key, (0, b"new"))

        asyncio.run(scenario())

    def test_write_during_read_repair_voids_the_copy(self):
        async def scenario():
            async with live_router(
                ["n0", "n1"], promote_threshold=3
            ) as (router, servers):
                (key,) = keys_owned_by(router, "n0", 1, prefix="hot")
                assert await router.set(key, b"old")
                assert await promote(router, key) == ("n1",)
                # The replica loses its copy and the primary answers
                # late, so the next read sees the miss and repairs it.
                assert await router.client("n1").delete(key)
                servers["n0"].fault_policy = SlowReplies(0.1)
                reached, release = self.hold_set(router, "n1", before=True)
                assert await router.get(key) == (0, b"old")
                servers["n0"].fault_policy = None
                await asyncio.wait_for(reached.wait(), 5.0)
                # The repair holds "old"; this write invalidates before
                # the late copy lands.
                assert await router.set(key, b"new")
                release.set()
                await settle_background(router)
                await self.assert_no_stale_copy(router, key, (0, b"new"))

        asyncio.run(scenario())

    def test_replica_error_line_demotes_the_key(self):
        async def scenario():
            async with live_router(
                ["n0", "n1"], promote_threshold=3
            ) as (router, servers):
                (key,) = keys_owned_by(router, "n0", 1, prefix="hot")
                assert await router.set(key, b"old")
                assert await promote(router, key) == ("n1",)
                replica = router.client("n1")
                replica.delete = refuse
                # The primary stored the write; the replica's refusal
                # is the proxy's to absorb, not the client's.
                assert await router.set(key, b"new") is True
                del replica.delete
                assert key not in router.replicas
                # A slow primary would let a stale replica win the race.
                servers["n0"].fault_policy = SlowReplies(0.05)
                for _ in range(5):
                    assert await router.get(key) == (0, b"new")
                    await settle_background(router)

        asyncio.run(scenario())

    def test_lost_incr_reply_still_invalidates(self):
        async def scenario():
            async with live_router(
                ["n0", "n1"], promote_threshold=3
            ) as (router, servers):
                (key,) = keys_owned_by(router, "n0", 1, prefix="hot")
                assert await router.set(key, b"1")
                assert await promote(router, key) == ("n1",)
                servers["n0"].fault_policy = SlowReplies(0.6)
                assert await router.incr(key, 1) is None
                servers["n0"].fault_policy = None
                # The primary applies the increment after the proxy
                # gave up on its reply.
                primary = router.client("n0")
                for _ in range(100):
                    value = await primary.get(key)
                    if value == (0, b"2"):
                        break
                    await asyncio.sleep(0.02)
                assert value == (0, b"2")
                assert await router.client("n1").get(key) in (None, value)

        asyncio.run(scenario())


async def refuse(*args):
    """A client method whose backend answers with an error line."""
    raise WireProtocolError("SERVER_ERROR busy")


class TestOneOutcomePerRequest:
    """Every request a breaker admits reports exactly one outcome, and
    every routed write invalidates whatever the primary's outcome."""

    @pytest.mark.parametrize("op", ["delete", "flush_all"])
    def test_error_line_releases_the_half_open_probe(self, op):
        async def scenario():
            async with live_router(["n0"]) as (router, _):
                breaker = router.breakers["n0"]
                breaker.record_failure()
                breaker.record_failure()
                breaker._opened_at -= breaker.open_duration_s
                assert breaker.state == HALF_OPEN
                setattr(router.client("n0"), op, refuse)
                call = (
                    router.delete("k") if op == "delete" else router.flush_all()
                )
                with pytest.raises(WireProtocolError, match="busy"):
                    await call
                assert breaker.state == CLOSED
                assert breaker.allow()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "op, args, degraded",
        [("set", (b"2",), False), ("delete", (), False), ("incr", (1,), None)],
    )
    def test_degraded_write_still_invalidates_replicas(
        self, op, args, degraded
    ):
        async def scenario():
            async with live_router(
                ["n0", "n1"], promote_threshold=3
            ) as (router, _):
                (key,) = keys_owned_by(router, "n0", 1, prefix="hot")
                assert await router.set(key, b"1")
                assert await promote(router, key) == ("n1",)
                breaker = router.breakers["n0"]
                breaker.record_failure()
                breaker.record_failure()
                assert breaker.state == OPEN
                before = counter(router, "proxy_degraded_total", op=op)
                assert await getattr(router, op)(key, *args) is degraded
                assert (
                    counter(router, "proxy_degraded_total", op=op)
                    == before + 1
                )
                assert await router.client("n1").get(key) is None

        asyncio.run(scenario())

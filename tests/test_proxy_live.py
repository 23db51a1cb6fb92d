"""Live proxy-tier tests: real sockets end to end.

Clients speak the ordinary text protocol to the proxy listener; behind
it the router coalesces, replicates, and circuit-breaks against real
backend node servers.  These are the acceptance tests of the proxy PR:

- a client behind the proxy sees zero transport errors while a backend
  is killed and restarted mid-traffic (the chaos contract);
- a hot-key storm's concurrent same-key fetches collapse >= 90% onto
  in-flight leaders;
- a promoted hot key keeps serving (stale-serve) while its primary's
  breaker is open;
- writes invalidate replica copies before returning;
- the proxy ring follows the Master's post-switch membership.
"""

import asyncio
import time

import pytest

from repro.core.master import Master
from repro.core.retry import RetryPolicy
from repro.faults.sockets import SocketFaultPolicy
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.cluster import LiveCluster
from repro.net.livemigrate import seed_records
from repro.net.runtime import EventLoopThread
from repro.obs import create_telemetry
from repro.obs.export import read_jsonl
from repro.obs.trace import TraceContext
from repro.proxy.breaker import CLOSED, OPEN
from repro.proxy.chaos import run_proxy_chaos
from repro.proxy.router import ProxyConfig
from repro.proxy.server import ProxyHarness
from repro.sim.scenarios import hot_key_storm

MEMORY = 8 * PAGE_SIZE
FAST_RETRY = RetryPolicy(
    max_attempts=2, base_backoff_s=0.01, max_backoff_s=0.05
)
FAST_BREAKER = dict(
    failure_threshold=2, open_duration_s=0.2, close_after=1
)


@pytest.fixture
def loop():
    with EventLoopThread(name="test-proxy-client") as thread:
        yield thread


def make_harness(names, config=None, fault_policy=None):
    return ProxyHarness(
        names,
        MEMORY,
        config=config,
        fault_policy=fault_policy,
        drain_grace_s=0.2,
    )


class TestProxyWire:
    def test_full_protocol_roundtrip_through_proxy(self, loop):
        with make_harness(["n0", "n1"]) as harness:
            host, port = harness.proxy_endpoint
            client = NodeClient("proxy", host, port)
            assert loop.call(client.set("k", b"hello", flags=3))
            assert loop.call(client.get("k")) == (3, b"hello")
            assert loop.call(client.get("ghost")) is None
            assert loop.call(client.set("n", b"41"))
            assert loop.call(client.incr("n", 1)) == 42
            assert loop.call(client.delete("k"))
            assert not loop.call(client.delete("k"))
            assert "proxy" in loop.call(client.version())
            stats = loop.call(client.stats())
            assert stats["active_backends"] == 2
            assert stats["proxy_gets"] >= 2
            assert stats["breaker_state_n0"] == 0
            loop.call(client.flush_all())
            assert loop.call(client.get("n")) is None
            loop.call(client.close())

    def test_keys_land_on_ring_owners(self, loop):
        """The proxy and a direct ketama client agree on placement."""
        with make_harness(["n0", "n1", "n2"]) as harness:
            host, port = harness.proxy_endpoint
            client = NodeClient("proxy", host, port)
            router = harness.router
            for i in range(30):
                key = f"place:{i}"
                assert loop.call(client.set(key, b"v"))
                owner = router.primary_for(key)
                direct = NodeClient(
                    owner, *harness.backends.endpoints[owner]
                )
                assert loop.call(direct.get(key)) == (0, b"v")
                loop.call(direct.close())
            loop.call(client.close())


class TestCoalescing:
    def test_hot_key_storm_collapses_90_percent(self):
        """Acceptance: >= 90% of a storm's concurrent same-key fetches
        ride an in-flight leader instead of hitting a backend."""
        # Every backend chunk is delayed ~50ms, so the whole storm is in
        # flight before the first leader resolves.
        stall = SocketFaultPolicy(
            FaultSchedule(
                [
                    FaultSpec(0.0, "node_stall", node=name, factor=0.5)
                    for name in ("n0", "n1", "n2", "n3")
                ]
            ),
            base_delay_s=0.05,
        )
        config = ProxyConfig(replication_factor=0)
        storm = hot_key_storm(
            requests=300, hot_keys=4, hot_fraction=1.0, seed=7
        )
        with make_harness(
            ["n0", "n1", "n2", "n3"], config=config, fault_policy=stall
        ) as harness:
            router = harness.router

            async def seed_and_storm():
                for key in storm.hot_keys:
                    await router.set(key, b"hot-value")
                return await asyncio.gather(
                    *(router.get(key) for key in storm.requests)
                )

            results = harness.loop.call(seed_and_storm(), timeout=30.0)
            assert all(value == (0, b"hot-value") for value in results)
            metrics = router.telemetry.metrics
            leaders = metrics.counter("proxy_coalesce_leaders_total").value
            followers = metrics.counter(
                "proxy_coalesce_followers_total"
            ).value
            assert leaders + followers == len(storm.requests)
            collapse = followers / (leaders + followers)
            assert collapse >= 0.90, (
                f"collapse ratio {collapse:.3f} "
                f"({leaders:.0f} leaders / {followers:.0f} followers)"
            )


class TestHotKeyReplication:
    def replication_config(self):
        return ProxyConfig(
            replication_factor=1,
            promote_threshold=4,
            max_hot_keys=4,
            timeout_s=0.5,
            retry=FAST_RETRY,
            backoff_scale=0.1,
            **FAST_BREAKER,
        )

    def drive_promotion(self, loop, client, router, key):
        """Read the key until the detector promotes it."""
        for _ in range(40):
            assert loop.call(client.get(key)) is not None
            if router.replicas.replicas_for(key):
                return router.replicas.replicas_for(key)
        raise AssertionError("key was never promoted")

    def test_hot_key_promoted_onto_replica(self, loop):
        with make_harness(
            ["n0", "n1", "n2"], config=self.replication_config()
        ) as harness:
            host, port = harness.proxy_endpoint
            client = NodeClient("proxy", host, port)
            key = "celebrity"
            assert loop.call(client.set(key, b"profile"))
            replicas = self.drive_promotion(
                loop, client, harness.router, key
            )
            primary = harness.router.primary_for(key)
            assert primary not in replicas
            # The replica backend physically holds a copy.
            replica = replicas[0]
            direct = NodeClient(
                replica, *harness.backends.endpoints[replica]
            )
            assert loop.call(direct.get(key)) == (0, b"profile")
            loop.call(direct.close())
            loop.call(client.close())

    def test_stale_serve_while_primary_breaker_open(self, loop):
        """A replicated hot key survives its primary's death: reads are
        served from the replica while the breaker is open."""
        with make_harness(
            ["n0", "n1", "n2"], config=self.replication_config()
        ) as harness:
            host, port = harness.proxy_endpoint
            client = NodeClient("proxy", host, port, timeout_s=5.0)
            router = harness.router
            key = "celebrity"
            assert loop.call(client.set(key, b"profile"))
            self.drive_promotion(loop, client, router, key)
            primary = router.primary_for(key)

            harness.kill_backend(primary)
            # Keep reading: every read must still return the value, and
            # after failure_threshold transport failures the primary's
            # breaker opens -- from then on reads are stale-serves.
            for _ in range(10):
                assert loop.call(client.get(key)) == (0, b"profile")
            assert router.breakers[primary].state != CLOSED
            metrics = router.telemetry.metrics
            assert metrics.counter("proxy_stale_serves_total").value >= 1
            assert metrics.counter("proxy_fanout_reads_total").value >= 1
            loop.call(client.close())

    def test_write_through_invalidation(self, loop):
        """A set drops every replica copy before acknowledging, so a
        following read can never observe the old replica value."""
        with make_harness(
            ["n0", "n1", "n2"], config=self.replication_config()
        ) as harness:
            host, port = harness.proxy_endpoint
            client = NodeClient("proxy", host, port)
            router = harness.router
            key = "celebrity"
            assert loop.call(client.set(key, b"old"))
            replicas = self.drive_promotion(loop, client, router, key)
            replica = replicas[0]

            assert loop.call(client.set(key, b"new"))
            # The replica's copy is gone the moment the set returned.
            direct = NodeClient(
                replica, *harness.backends.endpoints[replica]
            )
            assert loop.call(direct.get(key)) is None
            loop.call(direct.close())
            assert loop.call(client.get(key)) == (0, b"new")
            loop.call(client.close())


class TestRequestTracing:
    @pytest.mark.parametrize("sample", (0.0, 1.0))
    def test_only_a_sampling_tracer_records_request_spans(self, loop, sample):
        """Default telemetry records no span over N requests, whether or
        not they arrive under a ``trace`` frame; a sampling tracer
        records them all."""
        telemetry = create_telemetry("proxy", trace_sample=sample)
        with ProxyHarness(
            ["n0", "n1"], MEMORY, drain_grace_s=0.2, telemetry=telemetry
        ) as harness:
            client = NodeClient("proxy", *harness.proxy_endpoint)
            for i in range(20):
                if i == 10:
                    client.trace_context = TraceContext("abcd", "01")
                assert loop.call(client.set(f"k{i}", b"v"))
                assert loop.call(client.get(f"k{i}")) == (0, b"v")
            loop.call(client.close())
        spans = telemetry.tracer.spans
        if sample == 0.0:
            assert spans == []
        else:
            proxied = [s for s in spans if s.name.startswith("proxy.")]
            assert len(proxied) == 40
            joined = [s for s in proxied if s.trace_id == "abcd"]
            assert len(joined) == 20
            assert {span.parent_id for span in joined} == {"01"}


class TestFailoverChaos:
    def test_chaos_contract_zero_client_errors(self, tmp_path):
        """Acceptance: kill+restart a backend mid-traffic behind the
        proxy; the client stream stays error-free, the breaker cycle is
        observable, and the backend is re-admitted after restart."""
        trace = tmp_path / "chaos.jsonl"
        result = run_proxy_chaos(
            nodes=3,
            memory_per_node=MEMORY,
            keys=32,
            healthy_ops=80,
            dead_ops=120,
            seed=5,
            trace_jsonl=str(trace),
        )
        # trace_spans counts every recorded span, as exported.
        assert result.trace_spans == len(read_jsonl(trace).spans) > 0
        assert result.client_transport_errors == 0
        assert result.breaker_opened
        assert result.breaker_recovered
        assert result.victim_served_after_restart
        assert result.transitions["open"] >= 1
        assert result.transitions["half_open"] >= 1
        assert result.transitions["closed"] >= 1
        assert result.ok
        payload = result.to_dict()
        assert payload["ok"] is True
        assert payload["transitions"]["open"] >= 1

    def test_multiget_rides_out_a_backend_kill_and_restart(self, loop):
        """8-key gets through the proxy while one backend dies and comes
        back: no client-visible error, the live backend's keys and the
        promoted key keep hitting, the victim's breaker walks the cycle."""
        config = ProxyConfig(
            promote_threshold=4,
            timeout_s=0.5,
            retry=FAST_RETRY,
            backoff_scale=0.1,
            **FAST_BREAKER,
        )
        with make_harness(["n0", "n1"], config=config) as harness:
            client = NodeClient(
                "proxy", *harness.proxy_endpoint, timeout_s=5.0
            )
            router = harness.router
            victim, survivor = "n1", "n0"
            owned = {victim: [], survivor: []}
            for i in range(1000):
                owned[router.primary_for(f"k{i}")].append(f"k{i}")
            hot, *cold = owned[victim][:4]
            keys = [hot, *owned[survivor][:4], *cold]
            for key in keys:
                assert loop.call(client.set(key, key.encode()))
            for _ in range(10):
                assert loop.call(client.get(hot)) == (0, hot.encode())
            assert router.replicas.replicas_for(hot) == (survivor,)

            def multiget():
                values = loop.call(client.get_many(keys))  # must not raise
                assert values[:5] == [(0, key.encode()) for key in keys[:5]]
                return values[5:]

            assert multiget() == [(0, key.encode()) for key in cold]
            harness.kill_backend(victim)
            for _ in range(10):
                assert multiget() == [None] * 3
            assert router.breakers[victim].state != CLOSED
            harness.restart_backend(victim)
            for _ in range(100):
                served = multiget()
                if router.breakers[victim].state == CLOSED and all(served):
                    break
                time.sleep(0.05)
            assert served == [(0, key.encode()) for key in cold]
            metrics = router.telemetry.metrics
            for state in ("open", "half_open", "closed"):
                assert (
                    metrics.counter(
                        "proxy_breaker_transitions_total",
                        backend=victim,
                        to=state,
                    ).value
                    >= 1
                ), state
            assert metrics.counter("proxy_stale_serves_total").value >= 1
            assert router.breakers[survivor].state == CLOSED
            loop.call(client.close())

    def test_degraded_ops_fail_fast_once_breaker_open(self, loop):
        """With the breaker open, requests to the dead backend are
        rejected locally instead of eating a connect timeout."""
        config = ProxyConfig(
            timeout_s=0.5,
            retry=FAST_RETRY,
            backoff_scale=0.1,
            failure_threshold=2,
            open_duration_s=30.0,  # stays open for the whole test
        )
        with make_harness(["n0", "n1"], config=config) as harness:
            host, port = harness.proxy_endpoint
            client = NodeClient("proxy", host, port, timeout_s=5.0)
            router = harness.router
            victim = "n1"
            victim_key = next(
                f"k{i}"
                for i in range(1000)
                if router.primary_for(f"k{i}") == victim
            )
            harness.kill_backend(victim)
            # Trip the breaker.
            for _ in range(3):
                assert loop.call(client.get(victim_key)) is None
            assert router.breakers[victim].state == OPEN
            # Fail-fast: degraded get and set, no sockets touched.
            assert loop.call(client.get(victim_key)) is None
            assert not loop.call(client.set(victim_key, b"v"))
            metrics = router.telemetry.metrics
            assert (
                metrics.counter(
                    "proxy_breaker_rejections_total", backend=victim
                ).value
                >= 2
            )
            assert (
                metrics.counter("proxy_degraded_total", op="get").value
                >= 1
            )
            assert (
                metrics.counter("proxy_degraded_total", op="set").value
                >= 1
            )
            loop.call(client.close())


class TestMembershipIntegration:
    def test_proxy_follows_master_post_switch_ring(self, loop):
        """Subscribe the proxy to a Master driving the same backends;
        a scale-in switches the proxy ring the moment the Master's
        switch phase commits."""
        names = [f"live-{i:02d}" for i in range(4)]
        with make_harness(names) as harness:
            router = harness.router
            live = LiveCluster(
                harness.backends.endpoints,
                timeout_s=2.0,
                retry=FAST_RETRY,
                backoff_scale=0.05,
            )
            try:
                records = seed_records(200, value_bytes=24, seed=9)
                owners = live.route_many([r.key for r in records])
                groups = {}
                for record, owner in zip(records, owners):
                    groups.setdefault(owner, []).append(record)
                for name, group in groups.items():
                    live.nodes[name].batch_import(group, mode="merge")

                master = Master(live)
                master.subscribe_membership(router.membership_listener())
                plan = master.plan_scale_in(master.choose_retiring(1))
                report = master.execute(plan)

                assert sorted(router.active_members) == (
                    report.membership_after
                )
                retired = set(names) - set(report.membership_after)
                assert len(retired) == 1
                # The proxy no longer routes to the retired node, and
                # clients keep getting answered.
                host, port = harness.proxy_endpoint
                client = NodeClient("proxy", host, port)
                for record in records[:40]:
                    owner = router.primary_for(record.key)
                    assert owner in report.membership_after
                    loop.call(client.get(record.key))  # must not raise
                stats = loop.call(client.stats())
                assert stats["active_backends"] == 3
                assert stats["membership_switches"] == 1
                loop.call(client.close())
            finally:
                live.close()

    def test_update_membership_rejects_unknown_backend(self):
        with make_harness(["n0", "n1"]) as harness:
            from repro.errors import MembershipError

            with pytest.raises(MembershipError):
                harness.loop.call(
                    harness.router.update_membership(["n0", "ghost"])
                )
            assert sorted(harness.router.active_members) == ["n0", "n1"]

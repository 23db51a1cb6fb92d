"""Live tier under the loop sanitizer: debug mode + blocking trap on.

The acceptance bar for the sanitizer wiring: a full socket-backed
migration and a proxy round-trip run *clean* with asyncio debug mode,
the tightened slow-callback threshold, and the blocking-call trap
active on every loop in the process.  Any blocking call sneaking onto a
loop thread fails these tests loudly instead of hiding behind localhost
latency.
"""

import pytest

from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.livemigrate import run_live_migration
from repro.net.runtime import EventLoopThread
from repro.proxy.server import ProxyHarness

MEMORY = 8 * PAGE_SIZE


@pytest.fixture
def loop():
    with EventLoopThread(name="test-sanitized-client") as thread:
        yield thread


def test_live_migration_runs_clean_under_sanitizer():
    # A generous slow-callback threshold is set by the harness default;
    # run_live_migration raises InvariantViolation if either loop
    # records a blocking call, so plain completion IS the assertion.
    result = run_live_migration(
        nodes=3,
        retire=1,
        items=150,
        value_bytes=32,
        seed=13,
        verify=True,
        backoff_scale=0.1,
        sanitize=True,
    )
    assert result.warm
    assert result.verified is True


def test_proxy_roundtrip_runs_clean_under_sanitizer(loop):
    with ProxyHarness(
        ["n0", "n1"], MEMORY, drain_grace_s=0.2, sanitize=True
    ) as harness:
        host, port = harness.proxy_endpoint
        client = NodeClient("proxy", host, port)
        assert loop.call(client.set("k", b"hello", flags=3))
        assert loop.call(client.get("k")) == (3, b"hello")
        assert loop.call(client.delete("k"))
        loop.call(client.close())
        # Proxy and backends share one loop, so one sanitizer sees both.
        assert harness.sanitizer is not None
        assert harness.sanitizer is harness.backends.sanitizer
        assert harness.loop is harness.backends.loop
    harness.sanitizer.check("proxy + backend loop")

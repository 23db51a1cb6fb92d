"""Regression tests for seeded decorrelated retry jitter.

The jitter option must be strictly opt-in: every policy that does not
ask for it keeps the exact deterministic exponential schedule the Master
and the migration reports have always used.  With
``jitter="decorrelated"`` the schedule becomes the AWS decorrelated
chain -- each delay drawn uniformly from ``[base, min(cap, 3 * prev)]``
-- but remains a pure function of ``(policy, seed, failures)``, so
simulations replay bit-for-bit while distinct seeds spread simultaneous
retries apart.
"""

import pytest

from repro.core.retry import JITTER_MODES, NO_RETRY, RetryPolicy
from repro.errors import ConfigurationError


class TestDefaultScheduleUnchanged:
    """The pre-jitter behaviour is a frozen contract."""

    def test_exponential_schedule_exact_values(self):
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff_s=0.5,
            backoff_multiplier=2.0,
            max_backoff_s=3.0,
        )
        assert [policy.backoff_s(f) for f in range(1, 5)] == [
            0.5,
            1.0,
            2.0,
            3.0,  # capped
        ]

    def test_seed_is_ignored_without_jitter(self):
        policy = RetryPolicy()
        assert policy.backoff_s(2, seed=1) == policy.backoff_s(2, seed=99)
        assert policy.backoff_s(2, seed=1) == policy.backoff_s(2)

    def test_total_backoff_unchanged(self):
        policy = RetryPolicy(
            max_attempts=3, base_backoff_s=0.5, max_backoff_s=30.0
        )
        assert policy.total_backoff_s() == pytest.approx(1.5)
        assert NO_RETRY.total_backoff_s() == 0.0

    def test_failures_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(0)


class TestDecorrelatedJitter:
    def make(self, **kwargs):
        defaults = dict(
            max_attempts=4,
            base_backoff_s=0.1,
            max_backoff_s=2.0,
            jitter="decorrelated",
        )
        defaults.update(kwargs)
        return RetryPolicy(**defaults)

    def test_same_seed_same_delays(self):
        policy = self.make()
        first = [policy.backoff_s(f, seed=42) for f in range(1, 4)]
        second = [policy.backoff_s(f, seed=42) for f in range(1, 4)]
        assert first == second

    def test_distinct_seeds_decorrelate(self):
        policy = self.make()
        delays = {policy.backoff_s(2, seed=s) for s in range(20)}
        # 20 clients retrying after the same double failure should not
        # stampede at the same instant.
        assert len(delays) >= 18

    def test_no_seed_means_seed_zero(self):
        policy = self.make()
        assert policy.backoff_s(2) == policy.backoff_s(2, seed=0)

    def test_delays_respect_base_and_cap(self):
        policy = self.make(base_backoff_s=0.2, max_backoff_s=1.0)
        for seed in range(50):
            for failures in range(1, 5):
                delay = policy.backoff_s(failures, seed=seed)
                assert 0.2 <= delay <= 1.0

    def test_chain_growth_bounded_by_3x(self):
        """Each draw's ceiling is 3x the previous draw, so the first
        failure's delay never exceeds 3x base."""
        policy = self.make(base_backoff_s=0.1, max_backoff_s=100.0)
        for seed in range(50):
            assert policy.backoff_s(1, seed=seed) <= 0.3 + 1e-12

    def test_total_backoff_is_an_upper_envelope(self):
        policy = self.make()
        envelope = policy.total_backoff_s()
        for seed in range(30):
            realised = sum(
                policy.backoff_s(f, seed=seed)
                for f in range(1, policy.max_attempts)
            )
            assert realised <= envelope + 1e-12

    def test_unknown_jitter_mode_rejected(self):
        assert "decorrelated" in JITTER_MODES
        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy(jitter="full")


class TestClientSeedPlumbing:
    def test_node_client_stores_retry_seed(self):
        from repro.net.client import NodeClient

        client = NodeClient(
            "n0", "127.0.0.1", 0, retry_seed=7
        )
        assert client.retry_seed == 7

    def test_proxy_clients_get_per_backend_seeds(self):
        from repro.hashing.hashutil import hash32
        from repro.proxy.router import ProxyRouter

        router = ProxyRouter(
            {"a": ("127.0.0.1", 1), "b": ("127.0.0.1", 2)}
        )
        assert router.client("a").retry_seed == hash32("a")
        assert router.client("b").retry_seed == hash32("b")
        assert router.client("a").retry_seed != router.client(
            "b"
        ).retry_seed
        assert router.client("a").retry.jitter == "decorrelated"

"""Tests for the public API surface and small value types."""

import pytest

import repro
from repro.core.master import MigrationPlan, PhaseTimings
from repro.errors import (
    CapacityError,
    ConfigurationError,
    FaultError,
    FlowTimeoutError,
    MembershipError,
    MigrationAbortedError,
    MigrationError,
    ReproError,
)
from repro.memcached.items import ITEM_OVERHEAD, Item
from repro.memcached.node import MigratedItem, NodeStats


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        for name in (
            "FaultError",
            "FaultInjector",
            "FaultSchedule",
            "FaultSpec",
            "FlowTimeoutError",
            "MemcachedCluster",
            "MemcachedNode",
            "MigrationAbortedError",
            "RetryPolicy",
            "fuse_cache",
        ):
            assert hasattr(repro, name)

    def test_error_hierarchy(self):
        for error in (
            ConfigurationError,
            CapacityError,
            FaultError,
            MembershipError,
            MigrationError,
        ):
            assert issubclass(error, ReproError)
            assert issubclass(error, Exception)
        assert issubclass(MigrationAbortedError, MigrationError)
        assert issubclass(FlowTimeoutError, FaultError)


class TestItem:
    def test_total_size(self):
        item = Item("abc", None, 100, 0.0)
        assert item.total_size == ITEM_OVERHEAD + 3 + 100

    def test_touch_updates_only_last_access(self):
        item = Item("k", None, 10, 5.0)
        item.touch(9.0)
        assert item.last_access == 9.0
        assert item.created_at == 5.0

    def test_expiry_flags(self):
        eternal = Item("k", None, 10, 0.0)
        assert not eternal.is_expired(1e12)
        mortal = Item("k", None, 10, 0.0, exptime=10.0)
        assert not mortal.is_expired(9.9)
        assert mortal.is_expired(10.0)


class TestNodeStats:
    def test_hit_rate_empty(self):
        assert NodeStats().hit_rate == 0.0

    def test_hit_rate(self):
        stats = NodeStats(get_hits=3, get_misses=1)
        assert stats.gets == 4
        assert stats.hit_rate == pytest.approx(0.75)


class TestMigratedItem:
    def test_transfer_bytes(self):
        record = MigratedItem("abcd", None, 96, 1.0)
        assert record.transfer_bytes == 100


class TestPhaseTimings:
    def test_total_is_sum(self):
        timings = PhaseTimings(
            scoring_s=1.0,
            dump_s=2.0,
            metadata_transfer_s=3.0,
            fusecache_s=4.0,
            data_transfer_s=5.0,
            import_s=6.0,
        )
        assert timings.total_s == pytest.approx(21.0)
        breakdown = timings.breakdown()
        assert breakdown["total"] == pytest.approx(21.0)
        assert set(breakdown) == {
            "scoring",
            "hash_and_dump",
            "metadata_transfer",
            "fusecache",
            "data_migration",
            "import",
            "retries",
            "total",
        }

    def test_retry_time_counts_toward_total(self):
        timings = PhaseTimings(data_transfer_s=5.0, retry_s=2.5)
        assert timings.total_s == pytest.approx(7.5)
        assert timings.breakdown()["retries"] == pytest.approx(2.5)

    def test_plan_duration_delegates(self):
        plan = MigrationPlan(
            kind="scale_in",
            retiring=["a"],
            retained=["b"],
            new_nodes=[],
            transfers={},
            timings=PhaseTimings(scoring_s=1.5),
        )
        assert plan.duration_s == pytest.approx(1.5)

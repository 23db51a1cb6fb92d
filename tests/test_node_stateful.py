"""Stateful property test: the Memcached node against a reference model.

Drives a node through random command sequences while mirroring the
expected visible state in plain dicts, checking after every step that
lookups, memory accounting, and MRU structure stay coherent.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.memcached.node import MemcachedNode, MigratedItem
from repro.memcached.slab import PAGE_SIZE

KEYS = [f"key-{i}" for i in range(30)]


class NodeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # Large enough that nothing is evicted: the model assumes every
        # set sticks (eviction correctness is tested separately).
        self.node = MemcachedNode("n", 16 * PAGE_SIZE)
        self.model: dict[str, object] = {}
        self.expiry: dict[str, float] = {}
        self.clock = 0.0

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def _expire_model(self) -> None:
        dead = [
            key
            for key, deadline in self.expiry.items()
            if deadline <= self.clock
        ]
        for key in dead:
            self.model.pop(key, None)
            self.expiry.pop(key, None)

    @rule(key=st.sampled_from(KEYS), size=st.integers(1, 2000))
    def do_set(self, key, size):
        now = self._tick()
        assert self.node.set(key, f"v@{now}", size, now)
        self.model[key] = f"v@{now}"
        self.expiry.pop(key, None)

    @rule(
        key=st.sampled_from(KEYS),
        size=st.integers(1, 500),
        ttl=st.integers(1, 5),
    )
    def do_set_with_ttl(self, key, size, ttl):
        now = self._tick()
        assert self.node.set(key, f"t@{now}", size, now, exptime=float(ttl))
        self.model[key] = f"t@{now}"
        self.expiry[key] = now + ttl

    @rule(key=st.sampled_from(KEYS))
    def do_get(self, key):
        now = self._tick()
        self._expire_model()
        value = self.node.get(key, now)
        assert value == self.model.get(key)

    @rule(key=st.sampled_from(KEYS))
    def do_delete(self, key):
        self._tick()
        deleted = self.node.delete(key)
        # Lazy expiry: the node may still hold an expired item the model
        # already dropped; deleting it is allowed either way.
        if key in self.model:
            assert deleted
        self.model.pop(key, None)
        self.expiry.pop(key, None)

    @rule(
        key=st.sampled_from(KEYS),
        size=st.integers(1, 500),
        age=st.floats(0.0, 10.0),
    )
    def do_import(self, key, size, age):
        now = self._tick()
        migrated = MigratedItem(
            key=key,
            value=f"m@{now}",
            value_size=size,
            last_access=max(0.0, now - age),
        )
        assert self.node.batch_import([migrated], mode="merge") == 1
        self.model[key] = f"m@{now}"
        self.expiry.pop(key, None)

    @rule(
        keys=st.lists(
            st.sampled_from(KEYS), min_size=1, max_size=6, unique=True
        ),
        probe=st.sampled_from(KEYS),
        age=st.floats(0.0, 10.0),
    )
    def do_stepped_import(self, keys, probe, age):
        """A batch applied one record per step, the way a live server
        runs it, with a get served after every step."""
        now = self._tick()
        batch = [
            MigratedItem(
                key=key,
                value=f"s@{now}:{key}",
                value_size=64,
                last_access=max(0.0, now - age),
            )
            for key in keys
        ]
        steps = self.node.import_steps(batch, mode="merge")
        for record in batch:
            next(steps)
            self.model[record.key] = record.value
            self.expiry.pop(record.key, None)
            self._expire_model()
            assert self.node.get(probe, now) == self.model.get(probe)
            self.memory_accounting_consistent()
            self.mru_lists_are_well_formed()
        with pytest.raises(StopIteration) as done:
            next(steps)
        assert done.value.value == len(batch)

    @rule()
    def do_crawl(self):
        self._tick()
        self._expire_model()
        self.node.crawl_expired(self.clock)

    @invariant()
    def table_matches_model_size(self):
        self._expire_model()
        # The node may lag the model by items that expired but were not
        # yet lazily reclaimed -- never the other way around.
        live = {
            key
            for key in self.model
        }
        for key in live:
            assert self.node.contains(key)

    @invariant()
    def memory_accounting_consistent(self):
        assert self.node.used_bytes <= self.node.memory_bytes
        assert self.node.slabs.item_count() == self.node.curr_items

    @invariant()
    def mru_lists_are_well_formed(self):
        for slab_class in self.node.slabs.classes:
            slab_class.mru.check_invariants()

    @invariant()
    def merge_mode_keeps_lists_sorted(self):
        for class_id in self.node.active_class_ids():
            timestamps = [
                ts for _, ts in self.node.dump_timestamps(class_id)
            ]
            assert timestamps == sorted(timestamps, reverse=True)


TestNodeStateMachine = NodeMachine.TestCase
TestNodeStateMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)

"""The request tape: built here from ``--seed``, replayed by the driver.

The program under test sees only the generated requests.  A request is
``(is_write, keys)`` with :data:`~benchmarks.e2e.spec.KEYS_PER_REQUEST`
keys drawn from a seeded Zipf popularity over the workload's key space;
every key has one deterministic payload
(:func:`repro.loadgen.schedule.payload_for`), which is what makes every
hit checkable byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from benchmarks.e2e.spec import KEYS_PER_REQUEST, WorkloadSpec
from repro.loadgen.schedule import payload_for
from repro.workloads.keyspace import KeySpace
from repro.workloads.popularity import ZipfPopularity

Request = tuple[bool, list[str]]


@dataclass(frozen=True)
class Tape:
    """Everything the driver replays for one run."""

    requests: list[Request]
    payloads: dict[str, bytes]
    # Every key, coldest first: seeding in this order leaves the hottest
    # keys most recently used, i.e. the tier starts near steady state.
    seed_order: list[str]

    def digest(self) -> str:
        """SHA-256 of the request sequence (same seed -> same digest)."""
        sha = hashlib.sha256()
        for is_write, keys in self.requests:
            sha.update(b"W" if is_write else b"R")
            sha.update(",".join(keys).encode("ascii"))
            sha.update(b"\n")
        return sha.hexdigest()


def build_tape(spec: WorkloadSpec, seed: int, requests: int) -> Tape:
    """Plan ``requests`` requests for ``spec`` from ``seed`` alone."""
    popularity = ZipfPopularity(spec.num_keys, alpha=spec.zipf_alpha, seed=seed)
    keyspace = KeySpace(spec.num_keys)
    flat = keyspace.keys_for(popularity.sample(requests * KEYS_PER_REQUEST))
    writes = np.random.default_rng(seed + 1).random(requests) < spec.write_fraction
    tape = [
        (
            bool(writes[index]),
            flat[index * KEYS_PER_REQUEST : (index + 1) * KEYS_PER_REQUEST],
        )
        for index in range(requests)
    ]
    table = keyspace.materialize()
    payloads = {key: payload_for(key, spec.value_bytes) for key in table}
    coldest_first = [table[index] for index in popularity.rank_order()[::-1]]
    return Tape(tape, payloads, coldest_first)

"""Reproduction of *ElMem: Towards an Elastic Memcached System* (ICDCS 2018).

The package is organised as one subpackage per subsystem:

- :mod:`repro.memcached` -- in-process model of a Memcached node/cluster
  (slab allocator, per-class MRU lists, O(1) LRU eviction).
- :mod:`repro.hashing` -- client-side key-to-node mapping (ketama consistent
  hashing and rendezvous hashing).
- :mod:`repro.database` -- the persistent back-end store with a load-dependent
  latency model (the tier whose overload causes post-scaling degradation).
- :mod:`repro.netsim` -- bandwidth/latency model used to time data migration.
- :mod:`repro.cache_analysis` -- stack-distance and MIMIR hit-rate-curve
  machinery used by the AutoScaler.
- :mod:`repro.workloads` -- Zipf popularity, Generalized-Pareto value sizes,
  and the five demand traces of Fig. 5.
- :mod:`repro.sim` -- the discrete-time multi-tier application simulator.
- :mod:`repro.core` -- the paper's contribution: the FuseCache algorithm, the
  AutoScaler, node scoring, the Master/Agent migration protocol, and the
  migration policies (ElMem, Naive, CacheScale, no-migration baseline).
- :mod:`repro.faults` -- seeded, clock-driven fault injection (node
  crashes, throughput stalls, flow failures) used by the robustness
  experiments.
- :mod:`repro.analysis` -- degradation metrics, cost/energy model, and the
  elasticity-potential analysis.
"""

from repro.core.fusecache import fuse_cache
from repro.core.retry import RetryPolicy
from repro.errors import FaultError, FlowTimeoutError, MigrationAbortedError
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MemcachedNode

__version__ = "1.0.0"

__all__ = [
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
    "__version__",
]

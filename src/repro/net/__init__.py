"""Live asyncio TCP tier for the ElMem reproduction.

Everything else in this repository models the Memcached tier in-process;
this package runs it over real sockets:

- :mod:`repro.net.server` -- an asyncio TCP server fronting one
  :class:`~repro.memcached.node.MemcachedNode` with the incremental
  text-protocol parser (chunk-safe reads, pipelined requests,
  per-connection write batching, graceful drain on shutdown), plus a
  harness that boots a whole localhost cluster;
- :mod:`repro.net.client` -- an asyncio client with connection pooling,
  request pipelining, and timeout/retry behaviour built on
  :class:`~repro.core.retry.RetryPolicy`;
- :mod:`repro.net.cluster` -- :class:`~repro.net.cluster.LiveCluster`,
  a synchronous facade with the same interface as
  :class:`~repro.memcached.cluster.MemcachedCluster`, so the existing
  :class:`~repro.core.master.Master` executes a real three-phase
  migration over TCP;
- :mod:`repro.net.livemigrate` -- a scripted live scale-in used by the
  CLI (``repro live-migrate``) and CI, which optionally verifies the
  socket path against the in-process path byte for byte;
- :mod:`repro.net.procs` -- :class:`~repro.net.procs.ProcessClusterHarness`,
  a process supervisor that runs one :class:`~repro.net.server.NodeServer`
  per OS process (spawn-safe entrypoint, pipe readiness handshake,
  SIGTERM drain, crash detection + restart hooks), so the cluster is
  shared-nothing and actually scales across cores.

Unlike ``repro.sim``, nothing here is simulated: durations are wall
clock, transfers move real bytes, and failures are real socket errors
(surfaced as :class:`~repro.errors.TransportError` once retries are
exhausted).
"""

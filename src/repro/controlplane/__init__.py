"""Control plane: the AutoScaler driving live migrations under load.

The simulator decides *and* migrates inside one process; the live tier
used to run only scripted scale-ins.  This package closes the loop on
real sockets:

- :mod:`repro.controlplane.daemon` -- :class:`ControlPlane`, a
  long-running supervisor that polls live node stats through the
  :class:`~repro.net.cluster.LiveCluster` snapshot agent, feeds the
  measured request rate (and the load generator's key samples) into the
  shared :class:`~repro.core.autoscaler.ScalingEngine`, and executes
  three-phase FuseCache migrations through the *unmodified*
  :class:`~repro.core.master.Master`;
- :mod:`repro.controlplane.admin` -- a dependency-free asyncio JSON/REST
  admin API (``GET /status``, ``GET /metrics``, ``POST /scale``,
  ``POST /drain/<node>``) served from an
  :class:`~repro.net.runtime.EventLoopThread`;
- :mod:`repro.controlplane.scenario` -- the end-to-end CI runner: seed a
  process cluster, keep open-loop traffic flowing, let the engine decide
  a scale-in, and measure the paper's degradation window.

The decision policy itself lives in :mod:`repro.core.autoscaler`
(:class:`~repro.core.autoscaler.ScalingEngine`), consumed unchanged by
both the simulator and this daemon -- one policy object, two clocks.
"""

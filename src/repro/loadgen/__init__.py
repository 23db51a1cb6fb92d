"""Open-loop socket load generation for the live tier.

Closed-loop load generators (issue, wait, issue again) suffer from
*coordinated omission*: when the server stalls, the generator stalls
with it, so the very requests that would have seen the stall are never
issued and the measured tail is fiction.  This package drives the live
cluster **open loop**: every request has a send deadline fixed up front
by :func:`~repro.loadgen.schedule.build_schedule`, latency is measured
from that *scheduled* time, and a send that leaves late because the
backend or the generator fell behind is *recorded as late* -- never
silently rescheduled.

- :mod:`repro.loadgen.schedule` -- deterministic request tape: fixed-rate
  (optionally :class:`~repro.workloads.traces.RateTrace`-shaped)
  deadlines over a Zipf-popular key space, plus the tape digest the
  determinism tests compare;
- :mod:`repro.loadgen.driver` -- :class:`~repro.loadgen.driver.LoadGenerator`,
  the asyncio dispatcher: each op leaves at its own deadline (ops that
  came due together ship as one pipelined
  :class:`~repro.net.client.NodeClient` batch per node), ketama routing
  with live membership swaps, lateness/response/service histograms from
  :mod:`repro.obs.metrics`;
- :mod:`repro.loadgen.report` -- the JSON report schema
  (:class:`~repro.loadgen.report.LoadReport`), whose keys are its
  dataclass fields;
- :mod:`repro.loadgen.runner` -- end-to-end runs for the CLI and CI:
  steady-state load against a :class:`~repro.net.procs.ProcessClusterHarness`
  (or external endpoints), and the ``--migrate`` mode that scales in
  mid-load and reports the ``killed_at -> recovered_at`` degradation
  window.
"""

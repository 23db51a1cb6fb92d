"""Seeded, clock-driven fault injection for robustness experiments.

ElMem's claim is that warm migration completes *before* the scaling
action; this package supplies the adversary that claim must survive.
Faults are declared up front (:class:`FaultSpec` / :class:`FaultSchedule`,
reproducible from one seed) and applied by the :class:`FaultInjector` as
simulated time advances: node crashes, dump/import stalls, and per-flow
network failures or throttling.  The Master's retry/deadline machinery
and the migration policies consume the injector's query side to decide
when to retry, skip, or degrade a migration to plain cold scaling.
"""

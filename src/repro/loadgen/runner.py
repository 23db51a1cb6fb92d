"""End-to-end load runs: steady state, and scale-in under load.

One spine, :func:`drive_load`, scripts every load-driven run: boot (or
target) a cluster, seed the keyspace, replay an open-loop tape on an
:class:`~repro.net.runtime.EventLoopThread`, and -- while the tape
replays -- run an optional *action* on the calling thread.  The entry
points that back the CLI and CI are that spine plus an action:

- :func:`run_load` -- no action: a steady-state run;
- :func:`run_load_migration` -- the ElMem experiment: sleep, then the
  *unmodified* :class:`~repro.core.master.Master` plans and executes a
  three-phase scale-in against a
  :class:`~repro.net.cluster.LiveCluster` exactly as it would without
  any load.  The Master's post-switch membership callback swaps the
  generator's routing ring, and the retired node's process is then
  drained away;
- :func:`repro.controlplane.scenario.run_controlplane_scenario` -- the
  action starts a control plane and waits for the engine's decision.

:func:`degradation_window` turns an action's ``killed_at`` /
``executed_at`` instants into the ``killed_at -> recovered_at`` window:
recovery is when both the migration and the last load-side transport
error after it are behind us.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.master import Master, MigrationReport
from repro.errors import ConfigurationError
from repro.loadgen.driver import LoadGenerator
from repro.loadgen.report import LoadReport
from repro.loadgen.schedule import build_schedule, payload_for
from repro.memcached.slab import PAGE_SIZE
from repro.net.cluster import LiveCluster
from repro.net.procs import ProcessClusterHarness
from repro.net.runtime import EventLoopThread
from repro.workloads.traces import make_trace

SEED_BATCH = 2000
"""Keys per pipelined seeding batch."""

DEFAULT_MEMORY_PER_NODE = 8 * PAGE_SIZE
"""Node memory for self-hosted load runs (plenty for the default tape)."""


def seed_keys(
    live: LiveCluster, keys: list[str], value_bytes: int
) -> int:
    """Store every distinct key once so the load's gets can hit."""
    distinct = sorted(set(keys))
    stored = 0
    for start in range(0, len(distinct), SEED_BATCH):
        batch = distinct[start : start + SEED_BATCH]
        stored += live.set_many(
            [
                (key, (0, payload_for(key, value_bytes)), value_bytes)
                for key in batch
            ]
        )
    return stored


@dataclass
class LoadRun:
    """What a mid-run action may touch while the tape replays."""

    generator: LoadGenerator
    live: LiveCluster
    stop_node: Callable[[str], None] | None
    """Drains one self-hosted node process; ``None`` on external targets."""
    cleanup: contextlib.ExitStack
    """Runs after the tape ends, before the cluster goes away."""


def drive_load(
    rate: float,
    duration_s: float,
    seed: int,
    endpoints: dict[str, tuple[str, int]] | None = None,
    nodes: int = 3,
    memory_per_node: int = DEFAULT_MEMORY_PER_NODE,
    num_keys: int = 5000,
    set_fraction: float = 0.1,
    value_bytes: int = 64,
    trace: str | None = None,
    timeout_s: float = 5.0,
    action: Callable[[LoadRun], None] | None = None,
    key_observer: Callable[[list[str]], None] | None = None,
) -> LoadGenerator:
    """Replay one open-loop tape; returns the finished generator.

    With ``endpoints`` the run targets an externally managed cluster;
    otherwise it boots ``nodes`` node *processes* for the duration.
    ``action`` runs on the calling thread once the tape is flowing; if
    it raises, the replay stops with the cluster.  ``key_observer``
    goes to :class:`LoadGenerator`.
    """
    schedule = build_schedule(
        rate,
        duration_s,
        seed=seed,
        num_keys=num_keys,
        set_fraction=set_fraction,
        value_bytes=value_bytes,
        trace=None if trace is None else make_trace(trace),
    )
    with contextlib.ExitStack() as cleanup:
        stop_node = None
        if endpoints is None:
            if nodes < 1:
                raise ConfigurationError("need at least one node")
            names = [f"proc-{index:02d}" for index in range(nodes)]
            harness = cleanup.enter_context(
                ProcessClusterHarness(names, memory_per_node)
            )
            endpoints, stop_node = harness.endpoints, harness.stop_node
        live = cleanup.enter_context(
            LiveCluster(endpoints, timeout_s=timeout_s)
        )
        seed_keys(live, [op.key for op in schedule], value_bytes)
        generator = LoadGenerator(
            endpoints,
            schedule,
            timeout_s=timeout_s,
            key_observer=key_observer,
        )
        # Entered last, so it stops first: an action that raises cancels
        # the replay before the cluster under it goes away.
        loop = cleanup.enter_context(EventLoopThread(name="loadgen-driver"))
        replay = loop.submit(generator.run())
        if action is not None:
            if not generator.started.wait(timeout=30.0):
                raise ConfigurationError("load generator failed to start")
            action(LoadRun(generator, live, stop_node, cleanup))
        try:
            replay.result(timeout=duration_s + 120.0)
        except concurrent.futures.TimeoutError:
            raise ConfigurationError(
                "load generator did not finish in time"
            ) from None
    return generator


def degradation_window(
    generator: LoadGenerator, killed_at: float, executed_at: float
) -> dict[str, Any]:
    """The ``killed_at -> recovered_at`` window on the load timeline."""
    window_errors = [
        t for t, _ in generator.error_timeline if t >= killed_at
    ]
    recovered_at = max([executed_at, *window_errors])
    return {
        "killed_at_s": round(killed_at, 3),
        "recovered_at_s": round(recovered_at, 3),
        "window_s": round(recovered_at - killed_at, 3),
        "errors_in_window": len(window_errors),
    }


def run_load(
    rate: float,
    duration_s: float,
    seed: int = 0,
    endpoints: dict[str, tuple[str, int]] | None = None,
    nodes: int = 3,
    memory_per_node: int = DEFAULT_MEMORY_PER_NODE,
    num_keys: int = 5000,
    set_fraction: float = 0.1,
    value_bytes: int = 64,
    trace: str | None = None,
    timeout_s: float = 5.0,
) -> LoadReport:
    """One steady-state open-loop run; returns its report.

    With ``endpoints`` the run targets an externally managed cluster;
    otherwise it boots ``nodes`` node *processes* for the duration.
    """
    generator = drive_load(
        rate,
        duration_s,
        seed,
        endpoints=endpoints,
        nodes=nodes,
        memory_per_node=memory_per_node,
        num_keys=num_keys,
        set_fraction=set_fraction,
        value_bytes=value_bytes,
        trace=trace,
        timeout_s=timeout_s,
    )
    return generator.report("steady", rate, duration_s, seed, trace=trace)


def run_load_migration(
    rate: float,
    duration_s: float,
    seed: int = 7,
    nodes: int = 4,
    retire: int = 1,
    memory_per_node: int = DEFAULT_MEMORY_PER_NODE,
    num_keys: int = 5000,
    set_fraction: float = 0.1,
    value_bytes: int = 64,
    trace: str | None = None,
    migrate_at_frac: float = 0.35,
    timeout_s: float = 5.0,
) -> LoadReport:
    """Scale in ``retire`` of ``nodes`` node processes mid-load.

    The report's ``migration`` block records the plan outcome plus the
    degradation window: ``killed_at_s`` is when the Master's execute
    began on the load timeline, ``recovered_at_s`` is when both the
    migration and the last load-side transport error after it were
    behind us.
    """
    if nodes < 3:
        raise ConfigurationError(
            "a migration load run needs at least 3 nodes"
        )
    if not 0 < retire < nodes:
        raise ConfigurationError(
            f"retire must be in [1, {nodes - 1}], got {retire}"
        )
    if not 0.0 < migrate_at_frac < 1.0:
        raise ConfigurationError("migrate_at_frac must be within (0, 1)")
    done: list[tuple[MigrationReport, float, float]] = []

    def scale_in(run: LoadRun) -> None:
        master = Master(run.live)
        master.subscribe_membership(run.generator.set_membership)
        time.sleep(duration_s * migrate_at_frac)
        plan = master.plan_scale_in(master.choose_retiring(retire))
        killed_at = run.generator.now()
        moved = master.execute(plan)
        done.append((moved, killed_at, run.generator.now()))
        # The retired processes drain away for real: scale-in means
        # the OS process is gone, not just out of the ring.
        assert run.stop_node is not None  # self-hosted: no endpoints given
        for name in plan.retiring:
            run.stop_node(name)

    generator = drive_load(
        rate,
        duration_s,
        seed,
        nodes=nodes,
        memory_per_node=memory_per_node,
        num_keys=num_keys,
        set_fraction=set_fraction,
        value_bytes=value_bytes,
        trace=trace,
        timeout_s=timeout_s,
        action=scale_in,
    )
    moved, killed_at, executed_at = done[0]
    report = generator.report("migrate", rate, duration_s, seed, trace=trace)
    report.migration = {
        "retired": list(moved.plan.retiring),
        "membership_after": list(moved.membership_after),
        "outcome": moved.outcome,
        "items_exported": moved.items_exported,
        "items_imported": moved.items_imported,
        **degradation_window(generator, killed_at, executed_at),
    }
    return report

"""The paper's evaluation scenarios (Figs. 2, 6, and 8).

Each of the five demand traces comes with the scaling action(s) the
paper's Fig. 6 subcaptions annotate -- e.g. SYS runs "10 -> 7 nodes" when
its demand drops, ETC runs a scale-in followed by a scale-out.  Action
times are placed right after the corresponding demand change of the
synthetic trace shapes.

All parameters are calibrated so the laptop-scale simulator reproduces
the paper's *shapes*: a stable tail RT of tens of milliseconds, a
baseline post-scaling spike of ~20-80x with minutes-long restoration, and
an ElMem spike of only a few x (see EXPERIMENTS.md for measured vs
reported numbers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.policies import MigrationPolicy
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.sim.experiment import ExperimentConfig
from repro.workloads.traces import make_trace

DEFAULT_DURATION_S = 1500


@dataclass(frozen=True)
class PaperScenario:
    """One trace's evaluation setup from Fig. 6."""

    trace_name: str
    initial_nodes: int
    # (fraction of trace duration, target node count)
    actions: tuple[tuple[float, int], ...]
    label: str


PAPER_SCENARIOS: dict[str, PaperScenario] = {
    "sys": PaperScenario(
        trace_name="sys",
        initial_nodes=10,
        actions=((0.375, 7),),
        label="SYS: 10 -> 7 nodes",
    ),
    "etc": PaperScenario(
        trace_name="etc",
        initial_nodes=10,
        actions=((0.42, 9), (0.80, 10)),
        label="ETC: 10 -> 9 and 9 -> 10 nodes",
    ),
    "sap": PaperScenario(
        trace_name="sap",
        initial_nodes=10,
        actions=((0.42, 9), (0.72, 8)),
        label="SAP: 10 -> 9 and 9 -> 8 nodes",
    ),
    "nlanr": PaperScenario(
        trace_name="nlanr",
        initial_nodes=8,
        actions=((0.40, 9), (0.72, 8)),
        label="NLANR: 8 -> 9 and 9 -> 8 nodes",
    ),
    "microsoft": PaperScenario(
        trace_name="microsoft",
        initial_nodes=10,
        actions=((0.42, 9), (0.74, 8)),
        label="Microsoft: 10 -> 9 and 9 -> 8 nodes",
    ),
}


def paper_config(
    scenario_name: str,
    policy: str | MigrationPolicy,
    duration_s: int = DEFAULT_DURATION_S,
    seed: int = 3,
    **overrides,
) -> ExperimentConfig:
    """Build the calibrated :class:`ExperimentConfig` for one scenario.

    ``overrides`` may replace any config field (e.g. a shorter duration
    for smoke tests); the scaling schedule is derived from the scenario's
    action fractions and the actual duration.
    """
    try:
        scenario = PAPER_SCENARIOS[scenario_name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {scenario_name!r}; "
            f"choose from {sorted(PAPER_SCENARIOS)}"
        ) from None
    schedule = [
        (round(fraction * duration_s), target)
        for fraction, target in scenario.actions
    ]
    config = ExperimentConfig(
        trace=make_trace(scenario.trace_name, duration_s=duration_s),
        policy=policy,
        initial_nodes=scenario.initial_nodes,
        schedule=schedule,
        seed=seed,
    )
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise ConfigurationError(f"unknown config field {key!r}")
        setattr(config, key, value)
    return config


def scale_action_times(
    scenario_name: str, duration_s: int = DEFAULT_DURATION_S
) -> list[float]:
    """Absolute times of the scenario's scaling actions."""
    scenario = PAPER_SCENARIOS[scenario_name.lower()]
    return [
        float(round(fraction * duration_s))
        for fraction, _ in scenario.actions
    ]


# ----------------------------------------------------------------------
# Fault sweep (robustness evaluation, beyond the paper's testbed)
# ----------------------------------------------------------------------

FAULT_SWEEP_INTENSITIES = (0.0, 0.3, 0.6, 1.0)
"""Default intensities for the fault-degradation sweep (0 = fault-free)."""


def fault_sweep_config(
    intensity: float,
    scenario_name: str = "sys",
    policy: str | MigrationPolicy = "elmem",
    duration_s: int = DEFAULT_DURATION_S,
    seed: int = 3,
    migration_deadline_s: float = 300.0,
    flow_timeout_s: float = 90.0,
    **overrides,
) -> ExperimentConfig:
    """One point of the fault sweep: a paper scenario plus a seeded
    fault campaign of the given ``intensity``.

    The campaign is generated over the scenario's *initial* node fleet
    (crashes, stalls, flow faults) with ``FaultSchedule.random``; the
    Master runs with a migration deadline and per-flow timeouts so a
    hostile campaign degrades migrations to partial/cold instead of
    letting them run forever.  Because a random campaign rarely lands
    inside the short phase-3 window, intensities >= 0.5 additionally aim
    a timed flow-failure window at each scaling action -- the worst case
    for a warm migration: the network misbehaving exactly while data
    moves.  The same ``(intensity, seed)`` pair always produces the
    identical campaign.
    """
    config = paper_config(
        scenario_name, policy, duration_s=duration_s, seed=seed, **overrides
    )
    names = [f"node-{i:03d}" for i in range(config.initial_nodes)]
    schedule = FaultSchedule.random(
        names,
        float(duration_s),
        seed=seed + 1000,
        intensity=intensity,
    )
    if intensity >= 0.5:
        for action_time in scale_action_times(scenario_name, duration_s):
            schedule.add(
                FaultSpec(
                    action_time + 1.0,
                    "flow_fail",
                    duration_s=30.0 + 60.0 * intensity,
                )
            )
    config.fault_schedule = schedule
    config.migration_deadline_s = migration_deadline_s
    config.flow_timeout_s = flow_timeout_s
    return config


# ----------------------------------------------------------------------
# Hot-key storm (proxy-tier evaluation, beyond the paper's testbed)
# ----------------------------------------------------------------------

MAX_STORM_HOT_KEYS = 8
"""A storm concentrates on at most this many keys -- the regime where a
single node melts while the fleet idles, which is what the proxy tier's
coalescing and hot-key replication are built for."""


@dataclass(frozen=True)
class HotKeyStorm:
    """One seeded hot-key access burst.

    ``requests`` is the full access sequence, ready to replay against a
    cluster, a proxy router, or a live proxy; ``hot_keys`` are the storm
    targets, hottest first.
    """

    hot_keys: tuple[str, ...]
    cold_keys: tuple[str, ...]
    requests: tuple[str, ...]
    seed: int

    @property
    def hot_share(self) -> float:
        """Realised fraction of requests that land on a hot key."""
        if not self.requests:
            return 0.0
        hot = frozenset(self.hot_keys)
        return sum(1 for key in self.requests if key in hot) / len(
            self.requests
        )


def hot_key_storm(
    requests: int = 1000,
    hot_keys: int = 4,
    cold_keys: int = 256,
    hot_fraction: float = 0.9,
    seed: int = 0,
) -> HotKeyStorm:
    """A Zipf-like spike concentrating traffic onto ``hot_keys`` keys.

    Each request lands on the hot set with probability ``hot_fraction``;
    within the hot set, key ``k`` (rank ``r``, 1-based) is drawn with
    weight ``1/r`` -- the head of a Zipf(1) distribution, the shape
    measured for real Memcached workloads (ETC in Atikoglu et al.).  The
    remainder spreads uniformly over a cold keyspace.  The same
    ``(requests, hot_keys, cold_keys, hot_fraction, seed)`` tuple always
    yields the identical sequence.

    ``hot_keys`` is capped at :data:`MAX_STORM_HOT_KEYS`: a "storm" that
    spreads over dozens of keys is just a workload, not a storm, and the
    proxy tests rely on the hot set fitting the replica registry.
    """
    if not 1 <= hot_keys <= MAX_STORM_HOT_KEYS:
        raise ConfigurationError(
            f"hot_keys must be in [1, {MAX_STORM_HOT_KEYS}], got {hot_keys}"
        )
    if cold_keys < 1:
        raise ConfigurationError("cold_keys must be >= 1")
    if requests < 0:
        raise ConfigurationError("requests must be >= 0")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ConfigurationError("hot_fraction must be in [0, 1]")
    rng = random.Random(seed)
    hot = tuple(f"storm:hot:{i:02d}" for i in range(hot_keys))
    cold = tuple(f"storm:cold:{i:05d}" for i in range(cold_keys))
    weights = [1.0 / rank for rank in range(1, hot_keys + 1)]
    sequence = tuple(
        rng.choices(hot, weights=weights)[0]
        if rng.random() < hot_fraction
        else cold[rng.randrange(cold_keys)]
        for _ in range(requests)
    )
    return HotKeyStorm(
        hot_keys=hot, cold_keys=cold, requests=sequence, seed=seed
    )

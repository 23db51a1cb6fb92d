"""Scale-in-under-load runners: outcome, window, and report schema.

``run_load_migration`` (scripted scale-in) and
``run_controlplane_scenario`` (autoscaler-decided scale-in) back the
``loadgen --migrate`` and ``controlplane-scenario`` CI smoke jobs, whose
inline assertions read the JSON these tests pin.  Both boot one OS
process per node, so they carry the ``proc`` marker:

    PYTHONPATH=src python -m pytest -m proc tests/test_load_runners.py -q
"""

import pytest

from repro.controlplane.scenario import run_controlplane_scenario
from repro.loadgen.runner import run_load, run_load_migration
from repro.obs.export import read_jsonl

pytestmark = pytest.mark.proc

MIGRATION_KEYS = {
    "retired",
    "membership_after",
    "outcome",
    "items_exported",
    "items_imported",
    "killed_at_s",
    "recovered_at_s",
    "window_s",
    "errors_in_window",
}

WINDOW_KEYS = {"killed_at_s", "recovered_at_s", "window_s", "errors_in_window"}

SCENARIO_KEYS = {
    "nodes",
    "retire",
    "offered_rate",
    "duration_s",
    "seed",
    "decision",
    "migration",
    "degradation",
    "admin",
    "engine",
    "load",
    "trace_spans",
    "elapsed_s",
    "ok",
    "failures",
}


def test_steady_run_self_hosts_and_reports_no_migration():
    report = run_load(rate=300, duration_s=1.0, seed=3, nodes=2, num_keys=200)
    assert report.mode == "steady"
    assert report.nodes == ["proc-00", "proc-01"]
    assert report.ops_ok == report.ops_total > 0
    assert report.wire_errors == 0
    assert report.migration is None
    # Every key was seeded, so no get can miss.
    assert report.misses == 0


def test_load_migration_is_warm_and_measures_the_window():
    report = run_load_migration(
        rate=400, duration_s=3.0, seed=7, nodes=3, retire=1, num_keys=600
    )
    assert report.mode == "migrate"
    assert report.ops_ok > 0
    assert report.wire_errors == 0
    migration = report.to_dict()["migration"]
    assert set(migration) == MIGRATION_KEYS
    assert migration["outcome"] == "warm"
    assert len(migration["retired"]) == 1
    assert migration["retired"][0] not in migration["membership_after"]
    assert len(migration["membership_after"]) == 2
    assert migration["items_exported"] == migration["items_imported"] > 0
    assert migration["recovered_at_s"] >= migration["killed_at_s"] > 0.0
    assert migration["window_s"] == pytest.approx(
        migration["recovered_at_s"] - migration["killed_at_s"], abs=2e-3
    )


def test_controlplane_scenario_decides_and_measures_the_window(tmp_path):
    trace = tmp_path / "controlplane_trace.jsonl"
    result = run_controlplane_scenario(
        nodes=4, retire=1, rate=500, duration_s=6.0, seed=7, num_keys=1000,
        min_window=600, evaluate_interval_s=0.5, poll_interval_s=0.25,
        trace_jsonl=str(trace),
    )
    data = result.to_dict()
    assert set(data) == SCENARIO_KEYS
    assert data["ok"], data["failures"]
    assert data["failures"] == []
    assert data["migration"]["source"] == "autoscaler"
    assert data["migration"]["outcome"] == "warm"
    assert data["decision"]["current_nodes"] == 4
    assert data["decision"]["target_nodes"] == 3
    window = data["degradation"]
    assert set(window) == WINDOW_KEYS
    assert window["recovered_at_s"] >= window["killed_at_s"]
    assert window["window_s"] >= 0.0
    admin = data["admin"]
    assert admin["status_ok"] and admin["metrics_ok"]
    assert admin["rejects_malformed"]
    assert data["load"]["mode"] == "controlplane"
    assert data["load"]["ops_ok"] > 0
    assert data["load"]["wire_errors"] == 0
    assert data["engine"]
    # trace_spans counts every recorded span (the Master's migration
    # tree, not just its root), as exported.
    assert data["trace_spans"] == len(read_jsonl(trace).spans) > 1

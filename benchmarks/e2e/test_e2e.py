"""Self-tests of the benchmark: ``pytest benchmarks/e2e -q`` (under a minute).

They check the benchmark's own arithmetic and plumbing -- tape
determinism, order statistics, span self time, the in-process reference
twins -- and that a ``--smoke`` run emits every workload and metric that
``BENCHMARK.json`` names.  They make no performance claim.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from statistics import median

import pytest

from benchmarks.e2e import REPO_ROOT, spec
from benchmarks.e2e.ladder import reference_twins
from benchmarks.e2e.spans import Span, self_time_by_name, self_times
from benchmarks.e2e.stats import (
    covered,
    degraded_seconds,
    iqr_spread,
    percentile,
)
from benchmarks.e2e.tape import build_tape
from benchmarks.e2e.workloads import OUT_DIR

TOY = dataclasses.replace(
    spec.WORKLOADS["scale_in_warm"],
    memory_per_node=spec.MIB,
    num_keys=7_000,
    requests_per_s=100.0,
)


def test_same_seed_same_tape() -> None:
    workload = spec.WORKLOADS["read_small"]
    first = build_tape(workload, seed=7, requests=300)
    again = build_tape(workload, seed=7, requests=300)
    other = build_tape(workload, seed=8, requests=300)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert all(len(keys) == spec.KEYS_PER_REQUEST for _, keys in first.requests)
    assert sorted(first.seed_order) == sorted(first.payloads)
    assert all(len(p) == workload.value_bytes for p in first.payloads.values())


def test_percentile_is_nearest_rank() -> None:
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 0.50) == 50.0
    assert percentile(samples, 0.99) == 99.0
    assert percentile(samples, 1.0) == 100.0
    assert percentile([3.0], 0.99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_segment_median_and_spread() -> None:
    segments = [10.0, 12.0, 11.0, 50.0, 10.5, 11.5]
    assert median(segments) == 11.25  # one slow segment does not move it
    assert iqr_spread([5.0, 5.0, 5.0, 5.0]) == 0.0
    assert iqr_spread([1.0]) == 0.0
    values = [9.0, 10.0, 10.0, 11.0]
    assert iqr_spread(values) == pytest.approx(1.5 / 10.0)


def test_degraded_seconds_counts_buckets_over_the_limit() -> None:
    fast = [(index * 0.01, 0.001) for index in range(100)]  # 1 s, all fast
    slow = [(1.0 + index * 0.01, 0.2) for index in range(50)]  # 0.5 s slow
    assert degraded_seconds(fast + slow, 0.5, 0.05) == 0.5
    assert degraded_seconds(fast, 0.5, 0.05) == 0.0


def test_span_self_time_with_overlapping_children() -> None:
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0
    spans = [
        Span(1, "request", 0.0, 10.0, None, 0),
        Span(2, "get_many", 1.0, 5.0, 1, 0),
        Span(3, "get_many", 2.0, 6.0, 1, 0),  # overlaps span 2
        Span(4, "fill", 7.0, 9.0, 1, 0),
        Span(5, "set_many", 7.5, 8.5, 4, 0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))  # union, not sum
    assert own[4] == pytest.approx(1.0)
    assert self_time_by_name(spans)["get_many"] == pytest.approx(8.0)


def test_reference_twins_on_a_toy_ring() -> None:
    tape = build_tape(TOY, seed=3, requests=600)
    members = ["node-0", "node-1", "node-2"]
    first = reference_twins(
        TOY, tape, TOY.requests_per_s, members, "node-1", 150, 200, 450
    )
    again = reference_twins(
        TOY, tape, TOY.requests_per_s, members, "node-1", 150, 200, 450
    )
    assert first == again  # virtual time only: the twins are deterministic
    assert first.items_imported > 0
    assert all(src == "node-1" for src, _ in first.transfers)
    # Warm scale-in keeps the hot items the cold switch throws away.
    assert first.twin_post_hit_rate > first.cold_post_hit_rate
    assert 0.0 < first.cold_post_hit_rate < first.twin_post_hit_rate <= 1.0


def test_benchmark_json_matches_the_catalogue() -> None:
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.CONTRACT_END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert not any(name.startswith("bench_") for name in os.listdir(OUT_DIR.parent))


def test_smoke_run_emits_every_workload_and_metric() -> None:
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--seed", "5"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    report = json.loads((OUT_DIR / "results-smoke.json").read_text())
    assert report["smoke"] is True
    seen = {(r["workload"], r["traced"]): r for r in report["results"]}
    for workload in spec.WORKLOADS:
        for traced, catalogue in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
            result = seen[(workload, traced)]
            assert result["correct"], result["checks"]
            for metric in catalogue:
                if spec.applies(metric, workload):
                    assert metric.name in result["metrics"], (workload, metric.name)
                    assert metric.unit
                    assert f" {metric.unit}" in done.stdout
    assert (OUT_DIR / "scale_in_warm.spans.jsonl").exists()


def _session_members(sid: int) -> list[str]:
    """``pid:comm`` of every process still in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                comm, rest = handle.read().split("(", 1)[1].rsplit(")", 1)
        except OSError:
            continue
        if int(rest.split()[3]) == sid:
            members.append(f"{entry}:{comm}")
    return members


def test_contract_run_leaves_no_process_behind() -> None:
    # Its own session, so that whatever the run started can be found the
    # instant it returns -- multiprocessing's resource tracker included.
    command = [
        sys.executable,
        str(REPO_ROOT / "benchmarks/e2e/run.py"),
        *("--workload", "read_small", "--seed", "5"),
        *("--seconds", "1", "--trace", "0"),
    ]
    with subprocess.Popen(
        command,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as run:
        stdout, stderr = run.communicate(timeout=120)
        left = _session_members(run.pid)  # the session id is the leader's pid
    assert run.returncode == 0, stderr[-4000:]
    assert left == []
    line = json.loads(stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m.name for m in spec.CONTRACT_END_TO_END}

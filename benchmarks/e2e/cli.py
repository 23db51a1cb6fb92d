"""Command line of the benchmark.

    python -m benchmarks.e2e --all --seed 1          every workload, both runs
    python -m benchmarks.e2e --sets 2 --seed 1       run-to-run disagreement
    python -m benchmarks.e2e --smoke                 1/20 scale, not for claims
    python benchmarks/e2e/run.py --workload read_small --seed 3 \\
        --seconds 20 --trace 0                       one run, result line last

Every mode prints each metric by name with its unit, verifies outputs,
and exits non-zero when a check fails.  With ``--workload`` and
``--trace`` the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import sys
from pathlib import Path
from typing import Any, Sequence

from benchmarks.e2e import REPO_ROOT, spec
from statistics import median


def _check_source_tree() -> None:
    """Refuse to measure anything but this checkout's ``src/``."""
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {REPO_ROOT / 'src'}: {exc}")
    origin = Path(repro.__file__).resolve()
    if REPO_ROOT / "src" not in origin.parents:
        raise SystemExit(f"repro was imported from {origin}, not this checkout")


def fingerprint(pinned: bool) -> dict[str, Any]:
    """What the numbers were measured on."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "load_1min_at_start": os.getloadavg()[0],
        "pinned": pinned,
    }


def print_result(result: Any, out: Any) -> None:
    """Every metric by name with its unit, then the checks."""
    kind = "per-layer (traced)" if result.traced else "end-to-end"
    print(
        f"\n== {result.workload} · {kind} · seed {result.seed} · "
        f"{result.seconds:g}s ==",
        file=out,
    )
    spreads = result.notes.get("spread", {})
    for metric in spec.PER_LAYER if result.traced else spec.END_TO_END:
        if metric.name not in result.metrics:
            continue
        line = f"  {metric.name:44s} {result.metrics[metric.name]:14.4f} {metric.unit}"
        if metric.name in spreads:
            line += f"   iqr/median {spreads[metric.name]:.3f}"
        bound = spec.bound_for(metric, result.workload)
        if bound is not None and not result.traced:
            line += f"   bound {bound:.2f}"
        print(line, file=out)
    for row in result.notes.get("ladder", ()):
        print(
            f"  ladder {row['rung']:20s} total {row['total_s']:8.4f}s  "
            f"self {row['self_s']:8.4f}s",
            file=out,
        )
    for name in ("samples_per_segment", "steady_samples", "window_samples", "spans"):
        if name in result.notes:
            print(f"  note {name} = {result.notes[name]}", file=out)
    for check in result.checks:
        mark = "ok  " if check.ok else "FAIL"
        print(f"  [{mark}] {check.name}  {check.detail}", file=out)
    print(
        f"  attempted {result.attempted}  failed {result.failed}  "
        f"{'VALID' if result.correct else 'INVALID'}",
        file=out,
    )


def result_line(result: Any) -> str:
    """The contract's last line: exactly the catalogue's metrics."""
    catalogue = spec.PER_LAYER if result.traced else spec.CONTRACT_END_TO_END
    metrics = {
        metric.name: {
            "value": float(result.metrics.get(metric.name, 0.0)),
            "unit": metric.unit,
        }
        for metric in catalogue
    }
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": max(1, result.attempted),
            "failed": result.failed,
            "metrics": metrics,
        }
    )


def _as_json(result: Any) -> dict[str, Any]:
    return {**dataclasses.asdict(result), "correct": result.correct}


def _disagreement(sets: list[dict[str, dict[str, float]]], out: Any) -> bool:
    """Per workload x metric: how far the sets disagree, against the bound."""
    print("\n== disagreement between sets (share of the median) ==", file=out)
    within = True
    for workload in sets[0]:
        for metric in spec.END_TO_END:
            values = [
                one[workload][metric.name]
                for one in sets
                if metric.name in one.get(workload, {})
            ]
            if len(values) < 2 or not spec.applies(metric, workload):
                continue
            mid = median(values)
            gap = (max(values) - min(values)) / abs(mid) if mid else 0.0
            verdict = ""
            bound = spec.bound_for(metric, workload)
            if bound is not None:
                ok = gap <= bound
                within = within and ok
                verdict = f"bound {bound:.2f} {'ok' if ok else 'EXCEEDED'}"
            print(
                f"  {workload:18s} {metric.name:16s} "
                f"{' '.join(f'{v:12.4f}' for v in values)}   gap {gap:.3f} {verdict}",
                file=out,
            )
    return within


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per section")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0 end-to-end, 1 per-layer"
    )
    parser.add_argument("--sets", type=int, default=1, help="full sets to run")
    parser.add_argument("--smoke", action="store_true", help="1/20 scale")
    args = parser.parse_args(argv)
    if not (args.all or args.workload or args.smoke or args.sets > 1):
        parser.error("give --all, --workload NAME, --sets N or --smoke")
    return args


def _raise_interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt


def main(argv: Sequence[str] | None = None) -> int:
    """Run what ``argv`` asks for; leave no process behind on any way out."""
    from benchmarks.e2e.children import reap_resource_tracker

    try:
        return _main(argv)
    finally:
        reap_resource_tracker()


def _main(argv: Sequence[str] | None) -> int:
    args = _parse(argv)
    _check_source_tree()
    # Imported late: these pull in repro, which the check above vouches for.
    from benchmarks.e2e import workloads

    signal.signal(signal.SIGTERM, _raise_interrupt)
    driver_cpus, child_cpus = workloads.plan_affinity()
    machine = fingerprint(pinned=driver_cpus is not None)
    if driver_cpus is not None:
        os.sched_setaffinity(0, driver_cpus)
    contract = args.workload is not None and args.trace is not None
    out = sys.stderr if contract else sys.stdout
    print(f"machine: {json.dumps(machine)}", file=out)
    if driver_cpus is None:
        print("WARNING: fewer than 2 cores, driver and tier are NOT pinned", file=out)

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    all_results: list[Any] = []
    sets: list[dict[str, dict[str, float]]] = []
    for number in range(args.sets):
        if args.sets > 1:
            print(f"\n#### set {number + 1} of {args.sets} ####", file=out)
        end_to_end: dict[str, dict[str, float]] = {}
        for name in names:
            workload = spec.WORKLOADS[name]
            seconds = args.seconds or spec.DEFAULT_SECONDS
            if args.smoke:
                seconds = args.seconds or spec.SMOKE_SECONDS
                if workload.open_loop:
                    workload = workloads.smoke_scale_in(workload)
                    seconds *= 2
            for traced in traces:
                result = workloads.run_workload(
                    workload,
                    args.seed,
                    seconds,
                    traced,
                    child_cpus,
                    setups=1 if args.smoke else spec.SETUP_REPEATS,
                )
                print_result(result, out)
                all_results.append(result)
                if not traced:
                    end_to_end[name] = result.metrics
        sets.append(end_to_end)

    agreed = _disagreement(sets, out) if args.sets > 1 else True
    valid = all(result.correct for result in all_results)
    if contract:
        # The result line carries the verdict (``correct``); the exit code
        # only says that a result was produced.
        print(result_line(all_results[-1]))
        return 0
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = "results-smoke" if args.smoke else f"results-seed{args.seed}"
    path = workloads.OUT_DIR / f"{stem}.json"
    path.write_text(
        json.dumps(
            {
                "machine": machine,
                "smoke": args.smoke,
                "results": [_as_json(result) for result in all_results],
            },
            indent=1,
            default=str,
        )
    )
    print(f"\nresults written to {path}", file=out)
    print("ALL VALID" if valid else "SOME WORKLOAD INVALID", file=out)
    if not agreed:
        print("sets disagree by more than a bound", file=out)
    return 0 if valid and agreed else 1

"""Developer and operator tooling: check (lint + invariants), obs (trace
renderer), top (live dashboard).
"""

from __future__ import annotations

import argparse

from repro.cli._shared import parse_endpoint, shutdown_signals


def _lint_path(text: str) -> str:
    """A ``repro check`` path: a directory or an existing ``.py`` file."""
    from pathlib import Path

    path = Path(text)
    if path.is_dir() or (path.is_file() and path.suffix == ".py"):
        return text
    raise argparse.ArgumentTypeError(
        f"{text!r} is neither a directory nor a .py file"
    )


def _cmd_check(args: argparse.Namespace) -> int:
    import os
    import sys

    from repro.check.lint import lint_paths
    from repro.check.rules import rule_catalogue
    from repro.check.strict import (
        strict_fault_sweep_report,
        strict_smoke_report,
    )

    if args.list_rules:
        for code, name, description in rule_catalogue():
            print(f"  {code}  {name:28s} {description}")
        return 0
    try:
        paths = args.paths or [_lint_path("src/repro")]
    except argparse.ArgumentTypeError as exc:
        # The default is checked like a given path: no silent clean pass.
        print(f"repro check: {exc}; pass the paths to lint", file=sys.stderr)
        return 2

    machine = args.json_out
    if not machine:
        print(f"lint: checking {', '.join(paths)}")
    violations = lint_paths(paths)
    failed = bool(violations)

    if not machine:
        for violation in violations:
            print("  " + violation.render())
        if violations:
            print(f"lint: {len(violations)} violation(s)")
        else:
            print("lint: clean")

    sim_reports = []
    if not args.no_sim:
        sim_reports.append(strict_smoke_report())
        if args.strict_sim:
            sim_reports.append(strict_fault_sweep_report())
        if not machine:
            for report in sim_reports:
                print(
                    f"invariants: {report['label']}: "
                    f"{report['checks_run']} checks over "
                    f"{report['migrations']} migration(s), "
                    f"{report['violations']} violation(s) "
                    f"(hit rate {report['hit_rate']:.3f})"
                )

    if machine:
        import dataclasses
        import json

        print(
            json.dumps(
                {
                    "paths": paths,
                    "lint": [dataclasses.asdict(v) for v in violations],
                    "invariants": sim_reports,
                    "failed": failed,
                },
                indent=2,
            )
        )
    elif os.environ.get("GITHUB_ACTIONS") == "true":
        # Workflow commands: GitHub shows each finding on the PR diff.
        for v in violations:
            message = (
                v.message.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A")
            )
            print(
                f"::error file={v.path},line={max(1, v.line)},col={v.col + 1},"
                f"title={v.code} {v.rule}::{message}"
            )
    return 1 if failed else 0


def _add_check(sub: argparse._SubParsersAction) -> None:
    check = sub.add_parser(
        "check",
        help="repo-specific lint rules + invariant smoke run",
    )
    check.add_argument(
        "paths",
        nargs="*",
        type=_lint_path,
        help="directories or .py files to lint (default: src/repro)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    check.add_argument(
        "--no-sim",
        action="store_true",
        help="lint only; skip the strict-mode invariant smoke run",
    )
    check.add_argument(
        "--strict-sim",
        action="store_true",
        help="also run the fault-sweep scenario under strict mode",
    )
    check.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="print a machine-readable JSON report instead of prose",
    )
    check.set_defaults(func=_cmd_check)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs.export import read_jsonl
    from repro.obs.timeline import clock_for, render_timeline, summary_table
    from repro.obs.trace import build_trees

    try:
        dump = read_jsonl(*args.jsonl)
    except ConfigurationError as exc:
        raise SystemExit(f"repro obs: {exc}") from exc
    meta = {k: v for k, v in dump.meta.items() if k != "version"}
    if meta:
        print("run: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    roots = build_trees(dump.spans)
    traces: dict[str, list] = {}
    for root in roots:
        traces.setdefault(root.trace_id, []).append(root)
    print(
        f"{len(dump.spans)} span(s) from {len(args.jsonl)} file(s) "
        f"in {len(traces)} trace(s)"
    )
    shown = list(traces.items())
    if args.limit > 0:
        shown = shown[: args.limit]
    for trace_id, trees in shown:
        spans = [span for tree in trees for span in tree.walk()]
        start = min(span.start_s for span in spans)
        end = max(span.end_s or span.start_s for span in spans)
        print()
        print(
            f"trace {trace_id}  "
            f"processes: {', '.join(dict.fromkeys(s.process for s in spans))}  "
            f"spans: {len(spans)}  wall: {(end - start) * 1000:.2f}ms"
        )
        for tree in trees:
            clock = clock_for(tree, args.clock)
            print(render_timeline(tree, width=args.width, clock=clock))
    if len(shown) < len(traces):
        print()
        print(
            f"... {len(traces) - len(shown)} more trace(s); "
            "raise --limit to render them"
        )
    if roots:
        print()
        sim = any(clock_for(root, args.clock) == "sim" for root in roots)
        print(summary_table(roots, clock="sim" if sim else "wall"))
    else:
        print("(no span trees recorded)")
    if dump.events:
        print()
        print(f"run-level events ({len(dump.events)}):")
        for event in dump.events:
            when = (
                f"t={event.sim_s:8.1f}s"
                if event.sim_s is not None
                else "t=       ?"
            )
            attrs = ", ".join(
                f"{k}={v}"
                for k, v in event.attributes.items()
                if k != "reason"
            )
            print(f"  [{when}] {event.name}  {attrs}")
    if dump.metrics:
        counters = [
            m for m in dump.metrics if m.get("kind") == "counter"
        ]
        if counters:
            print()
            print(f"counters ({len(counters)}):")
            for sample in sorted(
                counters, key=lambda m: -m.get("value", 0)
            ):
                labels = sample.get("labels") or {}
                label_text = (
                    "{"
                    + ",".join(f"{k}={v}" for k, v in labels.items())
                    + "}"
                    if labels
                    else ""
                )
                print(
                    f"  {sample['name']}{label_text} "
                    f"{sample.get('value', 0):g}"
                )
    return 0


def _add_obs(sub: argparse._SubParsersAction) -> None:
    obs = sub.add_parser(
        "obs",
        help="render telemetry JSONL as ASCII timelines; the spans of "
        "several files are merged into one tree per trace id",
    )
    obs.add_argument(
        "jsonl",
        nargs="+",
        help="file(s) written by --trace-jsonl / --obs-jsonl",
    )
    obs.add_argument("--width", type=int, default=60)
    obs.add_argument(
        "--clock",
        choices=["sim", "wall"],
        default="sim",
        help="axis for trees with sim windows; the rest use the wall clock",
    )
    obs.add_argument(
        "--limit",
        type=int,
        default=5,
        help="traces to render (0 renders all)",
    )
    obs.set_defaults(func=_cmd_obs)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import TopDashboard

    proxy = parse_endpoint(args.proxy)
    nodes = {}
    for spec in args.node or []:
        name, _, endpoint = spec.partition("=")
        if not endpoint:
            name, endpoint = spec, spec
        nodes[name] = parse_endpoint(endpoint)
    dashboard = TopDashboard(proxy, nodes, timeout_s=args.timeout)
    frames = 0
    with shutdown_signals() as wait_for_signal:
        while True:
            snapshot = dashboard.sample()
            print(dashboard.render(snapshot, width=args.width), flush=True)
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                break
            print(flush=True)
            if wait_for_signal(args.interval):
                break
    return 0


def _add_top(sub: argparse._SubParsersAction) -> None:
    top = sub.add_parser(
        "top",
        help="terminal dashboard over a live proxy's stats obs page",
    )
    top.add_argument(
        "--proxy",
        required=True,
        metavar="HOST:PORT",
        help="proxy endpoint to scrape",
    )
    top.add_argument(
        "--node",
        action="append",
        metavar="NAME=HOST:PORT",
        help="backend to scrape plain stats from (repeatable)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="frames to render then exit (default: until a signal)",
    )
    top.add_argument(
        "--once",
        action="store_const",
        dest="iterations",
        const=1,
        help="render a single frame and exit",
    )
    top.add_argument("--timeout", type=float, default=5.0)
    top.add_argument("--width", type=int, default=78)
    top.set_defaults(func=_cmd_top)


def register(sub: argparse._SubParsersAction) -> None:
    """Add this group's subcommands to the top-level parser."""
    for add in (
        _add_check,
        _add_obs,
        _add_top,
    ):
        add(sub)

"""Scripted live-tier scenarios: live-migrate, proxy-chaos, loadgen,
controlplane-scenario.

Each runs one scenario to completion, prints its summary, and ends in
:func:`_finish`: the ``--json`` / ``--window-json`` artefacts CI reads
and the exit code.
"""

from __future__ import annotations

import argparse
import json
from typing import Any

from repro.cli._shared import parse_targets, sample_fraction


def _finish(
    args: argparse.Namespace,
    result: Any,
    ok: bool,
    window: dict[str, Any] | None = None,
) -> int:
    """Write the JSON artefacts the flags ask for; return the exit code."""
    outputs = [(args.json, result.to_dict())]
    if window is not None:
        outputs.append((args.window_json, window))
    for path, payload in outputs:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            print(f"  wrote {path}")
    if getattr(args, "trace_jsonl", None):
        print(f"  wrote {args.trace_jsonl}")
    return 0 if ok else 1


def _window_line(degradation: dict[str, Any]) -> str:
    window = degradation.get("window_s")
    window_text = f"{window:.3f}s" if window is not None else "unmeasured"
    detail = (
        f"killed at {degradation.get('killed_at_s')}s, "
        f"recovered at {degradation.get('recovered_at_s')}s"
    )
    if "errors_in_window" in degradation:
        detail += f", {degradation['errors_in_window']} errors inside"
    return f"  degradation       window {window_text} ({detail})"


def _cmd_live_migrate(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.net.livemigrate import run_live_migration

    print(
        f"live scale-in: {args.nodes} nodes -> retire {args.retire}, "
        f"{args.items} items over localhost TCP..."
    )
    telemetry = None
    if args.trace_jsonl:
        from repro.obs import create_telemetry

        telemetry = create_telemetry(
            "live-migrate", trace_sample=1.0, trace_seed=args.seed
        )
    result = run_live_migration(
        nodes=args.nodes,
        retire=args.retire,
        items=args.items,
        value_bytes=args.value_bytes,
        seed=args.seed,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        verify=not args.no_verify,
        timeout_s=args.timeout,
        telemetry=telemetry,
        trace_jsonl=args.trace_jsonl,
        sanitize=args.sanitize,
        process_cluster=args.procs,
    )
    print(
        f"  outcome      {result.outcome} "
        f"({result.completed_pairs} pairs, "
        f"{result.failed_flows} failed flows)"
    )
    print(f"  retired      {', '.join(result.retired)}")
    print(f"  membership   {', '.join(result.membership_after)}")
    print(
        f"  items        {result.items_seeded} seeded, "
        f"{result.items_exported} exported, "
        f"{result.items_imported} imported"
    )
    if result.degradation_window_s is not None:
        print(
            f"  degradation  {result.degradation_window_s:.3f}s "
            "(membership in flux during execute)"
        )
    if result.trace_spans:
        print(f"  trace spans  {result.trace_spans}")
    print(f"  wall clock   {result.wall_seconds:.2f}s")
    if result.verified is None:
        print("  equivalence  skipped (--no-verify)")
    elif result.verified:
        print("  equivalence  OK: contents byte-identical to the "
              "in-process migration")
    else:
        print(
            "  equivalence  MISMATCH on "
            f"{', '.join(result.mismatched_nodes)}"
        )
    if args.sanitize:
        # run_live_migration raises InvariantViolation before reaching
        # here if either loop recorded a hazard.
        print("  sanitizer    clean (asyncio debug + blocking-call trap)")
    return _finish(
        args, result, result.warm and result.verified is not False
    )


def _add_live_migrate(sub: argparse._SubParsersAction) -> None:
    live = sub.add_parser(
        "live-migrate",
        help="scripted scale-in over localhost TCP (three-phase, warm)",
    )
    live.add_argument(
        "--nodes", type=int, default=4, help="node servers to boot"
    )
    live.add_argument(
        "--retire", type=int, default=1, help="nodes to scale in"
    )
    live.add_argument(
        "--items", type=int, default=2000, help="items to seed"
    )
    live.add_argument(
        "--value-bytes", type=int, default=64, help="payload size per item"
    )
    live.add_argument("--seed", type=int, default=7, help="workload seed")
    live.add_argument(
        "--memory-mb", type=int, default=8, help="cache MB per node"
    )
    live.add_argument(
        "--timeout", type=float, default=5.0, help="client timeout seconds"
    )
    live.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the in-process equivalence replay",
    )
    live.add_argument(
        "--json", default=None, help="write the result summary to a file"
    )
    live.add_argument(
        "--trace-jsonl",
        default=None,
        help="trace the migration and export its spans",
    )
    live.add_argument(
        "--sanitize",
        action="store_true",
        help="run both loops under asyncio debug + blocking-call trap "
        "and fail on any recorded hazard",
    )
    live.add_argument(
        "--procs",
        action="store_true",
        help="boot each node in its own OS process (shared-nothing)",
    )
    live.set_defaults(func=_cmd_live_migrate)


def _cmd_proxy_chaos(args: argparse.Namespace) -> int:
    from repro.proxy.chaos import run_proxy_chaos

    print(
        f"proxy chaos: {args.nodes} backends, kill+restart one "
        f"mid-traffic (seed {args.seed})..."
    )
    result = run_proxy_chaos(
        nodes=args.nodes,
        keys=args.keys,
        healthy_ops=args.ops,
        dead_ops=args.ops,
        seed=args.seed,
        trace_sample=args.trace_sample,
        trace_jsonl=args.trace_jsonl,
    )
    print(f"  requests          {result.requests_total}")
    print(f"  transport errors  {result.client_transport_errors}")
    print(
        f"  hits/misses       {result.hits}/{result.misses} "
        f"(stored {result.stored}, rejected sets {result.rejected_sets})"
    )
    print(
        f"  breaker           opened={result.breaker_opened} "
        f"recovered={result.breaker_recovered} "
        f"transitions={result.transitions}"
    )
    print(
        f"  victim            {result.victim} "
        f"(served after restart: {result.victim_served_after_restart})"
    )
    print(_window_line(result.degradation))
    for phase, numbers in result.degradation.get("phases", {}).items():
        print(
            f"    {phase:<9} p99 {numbers.get('p99_ms')}ms  "
            f"hit rate {numbers.get('hit_rate')}"
        )
    scrape = result.obs_scrape
    print(
        f"  obs scrape        ok={scrape.get('ok')} "
        f"({scrape.get('samples', 0)} samples, "
        f"missing: {scrape.get('missing', []) or 'none'})"
    )
    print(f"  trace spans       {result.trace_spans}")
    print(f"  wall clock        {result.elapsed_s:.2f}s")
    print(f"  verdict           {'OK' if result.ok else 'FAILED'}")
    return _finish(
        args,
        result,
        result.ok,
        window={
            "degradation": result.degradation,
            "obs_scrape": result.obs_scrape,
        },
    )


def _add_proxy_chaos(sub: argparse._SubParsersAction) -> None:
    chaos = sub.add_parser(
        "proxy-chaos",
        help="kill+recover a backend behind the proxy; assert clean clients",
    )
    chaos.add_argument(
        "--nodes", type=int, default=4, help="backend servers to boot"
    )
    chaos.add_argument(
        "--keys", type=int, default=64, help="keyspace size"
    )
    chaos.add_argument(
        "--ops",
        type=int,
        default=200,
        help="client operations per phase (healthy / dead)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="traffic seed")
    chaos.add_argument(
        "--json", default=None, help="write the chaos report to a file"
    )
    chaos.add_argument(
        "--trace-sample",
        type=sample_fraction,
        default=0.05,
        help="fraction of proxy requests that start a live trace",
    )
    chaos.add_argument(
        "--trace-jsonl",
        default=None,
        help="export the run's sampled spans as JSON lines",
    )
    chaos.add_argument(
        "--window-json",
        default=None,
        help="write the degradation window + scrape verdict to a file",
    )
    chaos.set_defaults(func=_cmd_proxy_chaos)


def _print_load_report(data: dict[str, Any]) -> None:
    print(
        f"  offered      {data['offered_rate']:.0f} ops/s for "
        f"{data['duration_s']:.0f}s ({data['ops_total']} ops)"
    )
    print(
        f"  achieved     {data['achieved_rate']:.0f} ops/s "
        f"({data['ops_ok']} ok, {data['late_sends']} late, "
        f"{data['transport_errors']} transport / "
        f"{data['wire_errors']} wire errors)"
    )
    print(
        f"  outcomes     {data['hits']} hits, {data['misses']} misses, "
        f"{data['stored']} stored"
    )
    for label, title in (
        ("response_ms", "response"),
        ("service_ms", "service"),
        ("lateness_ms", "lateness"),
    ):
        q = data[label]
        print(
            f"  {title:<12} p50 {q['p50']} ms, p95 {q['p95']} ms, "
            f"p99 {q['p99']} ms"
        )
    migration = data.get("migration")
    if migration:
        print(
            f"  migration    {migration['outcome']}: retired "
            f"{', '.join(migration['retired'])}; window "
            f"{migration['killed_at_s']}s -> "
            f"{migration['recovered_at_s']}s "
            f"({migration['window_s']}s, "
            f"{migration['errors_in_window']} errors)"
        )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen.runner import run_load, run_load_migration
    from repro.memcached.slab import PAGE_SIZE

    if args.migrate and args.target:
        raise SystemExit(
            "--migrate needs process control over its own cluster; "
            "drop --target"
        )
    tape: dict[str, Any] = dict(
        rate=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        nodes=args.nodes,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        num_keys=args.keys,
        set_fraction=args.set_fraction,
        value_bytes=args.value_bytes,
        trace=args.trace,
        timeout_s=args.timeout,
    )
    if args.migrate:
        print(
            f"open-loop load + scale-in: {args.nodes} node processes, "
            f"retire {args.retire} at "
            f"{args.migrate_at:.0%} of {args.duration:.0f}s..."
        )
        report = run_load_migration(
            retire=args.retire, migrate_at_frac=args.migrate_at, **tape
        )
    else:
        endpoints = parse_targets(args.target) if args.target else None
        where = (
            f"{len(endpoints)} target endpoints"
            if endpoints is not None
            else f"{args.nodes} self-hosted node processes"
        )
        print(
            f"open-loop load: {args.rate:.0f} ops/s for "
            f"{args.duration:.0f}s against {where}..."
        )
        report = run_load(endpoints=endpoints, **tape)
    _print_load_report(report.to_dict())
    ok = report.ops_ok > 0 and report.wire_errors == 0
    if report.migration is not None:
        ok = ok and report.migration.get("outcome") == "warm"
    return _finish(args, report, ok)


def _add_loadgen(sub: argparse._SubParsersAction) -> None:
    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop socket load generator (fixed-rate, CO-free)",
    )
    loadgen.add_argument(
        "--target",
        action="append",
        metavar="[NAME=]HOST:PORT",
        help="node endpoint to drive (repeatable); omit to self-host",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=1000.0,
        help="offered request rate (peak ops/s with --trace)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=10.0, help="run seconds"
    )
    loadgen.add_argument(
        "--seed", type=int, default=0, help="schedule seed"
    )
    loadgen.add_argument(
        "--nodes",
        type=int,
        default=3,
        help="node processes to self-host when no --target is given",
    )
    loadgen.add_argument(
        "--memory-mb",
        type=int,
        default=8,
        help="cache MB per self-hosted node",
    )
    loadgen.add_argument(
        "--keys", type=int, default=5000, help="distinct keys in the tape"
    )
    loadgen.add_argument(
        "--set-fraction",
        type=float,
        default=0.1,
        help="fraction of operations that are sets",
    )
    loadgen.add_argument(
        "--value-bytes", type=int, default=64, help="payload size per set"
    )
    loadgen.add_argument(
        "--trace",
        default=None,
        help="shape the rate by a demand trace (sys/etc/sap/...)",
    )
    loadgen.add_argument(
        "--migrate",
        action="store_true",
        help="run a Master scale-in mid-load and report the window",
    )
    loadgen.add_argument(
        "--retire",
        type=int,
        default=1,
        help="nodes to scale in with --migrate",
    )
    loadgen.add_argument(
        "--migrate-at",
        type=float,
        default=0.35,
        help="when to start the scale-in, as a fraction of --duration",
    )
    loadgen.add_argument(
        "--timeout", type=float, default=5.0, help="client timeout seconds"
    )
    loadgen.add_argument(
        "--json", default=None, help="write the load report to a file"
    )
    loadgen.set_defaults(func=_cmd_loadgen)


def _cmd_controlplane_scenario(args: argparse.Namespace) -> int:
    from repro.controlplane.scenario import run_controlplane_scenario
    from repro.memcached.slab import PAGE_SIZE

    print(
        f"control-plane scenario: {args.nodes} node processes, "
        f"{args.rate:.0f} ops/s for {args.duration:.0f}s; the engine "
        f"must decide a scale-in to {args.nodes - args.retire} "
        f"(seed {args.seed})..."
    )
    result = run_controlplane_scenario(
        nodes=args.nodes,
        retire=args.retire,
        rate=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        num_keys=args.keys,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        poll_interval_s=args.poll_interval,
        evaluate_interval_s=args.interval,
        confirm_rounds=args.confirm_rounds,
        min_window=args.min_window,
        timeout_s=args.timeout,
        trace_jsonl=args.trace_jsonl,
    )
    decision = result.decision or {}
    print(
        f"  decision          {decision.get('current_nodes')} -> "
        f"{decision.get('target_nodes')} nodes "
        f"(p_min {decision.get('p_min')}, "
        f"rate {decision.get('request_rate')} rps, "
        f"confirmed x{decision.get('confirm_rounds')})"
    )
    migration = result.migration or {}
    print(
        f"  migration         {migration.get('changed')} retired, "
        f"outcome {migration.get('outcome')} "
        f"({migration.get('items_exported')} items exported)"
    )
    print(_window_line(result.degradation))
    admin = result.admin
    print(
        f"  admin API         {admin.get('endpoint')} "
        f"status={admin.get('status_ok')} "
        f"metrics={admin.get('metrics_ok')} "
        f"rejects-malformed={admin.get('rejects_malformed')}"
    )
    print(
        f"  load              {result.load.get('ops_ok')} ops ok, "
        f"{result.load.get('wire_errors')} wire errors, "
        f"p99 {result.load.get('response_ms', {}).get('p99')}ms"
    )
    print(f"  trace spans       {result.trace_spans}")
    print(f"  wall clock        {result.elapsed_s:.2f}s")
    print(f"  verdict           {'OK' if result.ok else 'FAILED'}")
    for failure in result.failures:
        print(f"    FAIL: {failure}")
    return _finish(
        args,
        result,
        result.ok,
        window={
            "decision": result.decision,
            "degradation": result.degradation,
            "admin": result.admin,
        },
    )


def _add_controlplane_scenario(sub: argparse._SubParsersAction) -> None:
    cpscenario = sub.add_parser(
        "controlplane-scenario",
        help="autoscaler-decided live scale-in under open-loop load",
    )
    cpscenario.add_argument(
        "--nodes", type=int, default=4, help="node processes to boot"
    )
    cpscenario.add_argument(
        "--retire",
        type=int,
        default=1,
        help="nodes the engine should decide to retire",
    )
    cpscenario.add_argument(
        "--rate", type=float, default=600.0, help="offered ops/s"
    )
    cpscenario.add_argument(
        "--duration", type=float, default=15.0, help="run length in seconds"
    )
    cpscenario.add_argument("--seed", type=int, default=7, help="tape seed")
    cpscenario.add_argument(
        "--keys", type=int, default=3000, help="distinct keys in the tape"
    )
    cpscenario.add_argument(
        "--memory-mb",
        type=int,
        default=8,
        help="per-node memory in MiB-sized pages",
    )
    cpscenario.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="daemon stat-poll interval in seconds",
    )
    cpscenario.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between AutoScaler evaluations",
    )
    cpscenario.add_argument(
        "--confirm-rounds",
        type=int,
        default=2,
        help="consecutive same-direction decisions before acting",
    )
    cpscenario.add_argument(
        "--min-window",
        type=int,
        default=1500,
        help="key samples required before the engine evaluates",
    )
    cpscenario.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-socket-operation timeout in seconds",
    )
    cpscenario.add_argument(
        "--json", default=None, help="write the scenario report to a file"
    )
    cpscenario.add_argument(
        "--window-json",
        default=None,
        help="write decision + degradation window + admin verdict to a file",
    )
    cpscenario.add_argument(
        "--trace-jsonl",
        default=None,
        help="export the run's spans + metrics as JSON lines",
    )
    cpscenario.set_defaults(func=_cmd_controlplane_scenario)


def register(sub: argparse._SubParsersAction) -> None:
    """Add this group's subcommands to the top-level parser."""
    for add in (
        _add_live_migrate,
        _add_proxy_chaos,
        _add_loadgen,
        _add_controlplane_scenario,
    ):
        add(sub)

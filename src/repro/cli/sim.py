"""Simulator and analysis subcommands: run, scenario, traces, fusecache,
mrc, cost, report.
"""

from __future__ import annotations

import argparse
import time


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.experiment import ExperimentConfig, run_experiment
    from repro.sim.export import write_csv, write_json
    from repro.workloads.traces import make_trace

    schedule = []
    for spec in args.scale or []:
        when, target = spec.split(":", 1)
        schedule.append((float(when), int(target)))
    telemetry = None
    if args.trace_jsonl or args.prom:
        from repro.obs import create_telemetry

        telemetry = create_telemetry()
    config = ExperimentConfig(
        trace=make_trace(args.trace, duration_s=args.duration),
        policy=args.policy,
        schedule=schedule,
        autoscale=args.autoscale,
        seed=args.seed,
        telemetry=telemetry,
    )
    print(
        f"Running {args.trace} x {args.policy} for {args.duration}s "
        f"(seed {args.seed})..."
    )
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    summary = result.summary()
    print(f"done in {elapsed:.1f}s wall clock")
    for name, value in summary.items():
        print(f"  {name:20s} {value:.3f}")
    for event in result.policy.events:
        print(f"  [t={event.time:7.1f}s] {event.kind}: {event.detail}")
    if args.plot:
        from repro.analysis.asciiplot import chart

        print()
        print(
            chart(
                list(result.metrics.p95_series_ms()),
                "p95 RT (log scale)",
                markers=result.scaling_times
                and [t / len(result.metrics) for t in result.scaling_times],
                log_scale=True,
            )
        )
        print()
        print(
            chart(
                list(result.metrics.hit_rates()),
                "hit rate",
            )
        )
    if args.csv:
        print(f"metrics -> {write_csv(result.metrics, args.csv)}")
    if args.json:
        print(f"metrics -> {write_json(result.metrics, args.json)}")
    if telemetry is not None and args.trace_jsonl:
        from repro.obs.export import write_jsonl

        path = write_jsonl(
            args.trace_jsonl,
            tracer=telemetry.tracer,
            metrics=telemetry.metrics,
            meta={
                "trace": args.trace,
                "policy": args.policy,
                "duration_s": args.duration,
                "seed": args.seed,
            },
        )
        print(f"telemetry -> {path}")
    if telemetry is not None and args.prom:
        from pathlib import Path

        from repro.obs.export import to_prometheus

        Path(args.prom).write_text(to_prometheus(telemetry.metrics))
        print(f"prometheus -> {args.prom}")
    return 0


def _add_run(sub: argparse._SubParsersAction) -> None:
    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--trace", default="etc")
    run.add_argument("--policy", default="elmem")
    run.add_argument("--duration", type=int, default=900)
    run.add_argument("--seed", type=int, default=3)
    run.add_argument(
        "--scale",
        action="append",
        metavar="T:NODES",
        help="schedule a scaling action, e.g. --scale 400:7",
    )
    run.add_argument("--autoscale", action="store_true")
    run.add_argument(
        "--plot",
        action="store_true",
        help="render terminal charts of p95 RT and hit rate",
    )
    run.add_argument("--csv", help="export per-second metrics as CSV")
    run.add_argument("--json", help="export per-second metrics as JSON")
    run.add_argument(
        "--trace-jsonl",
        help="record telemetry and export it as JSON lines",
    )
    run.add_argument(
        "--prom",
        help="record metrics and export Prometheus text exposition",
    )
    run.set_defaults(func=_cmd_run)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.analysis.degradation import summarize_post_scaling
    from repro.sim.experiment import run_experiment
    from repro.sim.scenarios import paper_config, scale_action_times

    times = scale_action_times(args.name, args.duration)
    print(
        f"Scenario {args.name!r}: scaling actions at "
        f"{[f'{t:.0f}s' for t in times]}"
    )
    for policy in args.policies:
        config = paper_config(
            args.name, policy, duration_s=args.duration, seed=args.seed
        )
        result = run_experiment(config)
        summary = summarize_post_scaling(
            result.metrics,
            times[0],
            horizon_s=min(450.0, args.duration - times[0] - 10),
            restoration_factor=2.0,
        )
        restoration = (
            f"{summary.restoration_time_s:.0f}s"
            if summary.restoration_time_s is not None
            else "not in window"
        )
        print(
            f"  {policy:10s} stable {summary.stable_rt_ms:7.1f}ms  "
            f"peak {summary.peak_rt_ms:9.1f}ms  "
            f"post-avg {summary.average_post_rt_ms:8.1f}ms  "
            f"restoration {restoration}"
        )
    return 0


def _add_scenario(sub: argparse._SubParsersAction) -> None:
    scenario = sub.add_parser(
        "scenario", help="replay a paper scenario under several policies"
    )
    scenario.add_argument("--name", default="sys")
    scenario.add_argument(
        "--policies",
        nargs="+",
        default=["baseline", "elmem"],
    )
    scenario.add_argument("--duration", type=int, default=900)
    scenario.add_argument("--seed", type=int, default=3)
    scenario.set_defaults(func=_cmd_scenario)


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.workloads.traces import TRACE_FACTORIES, make_trace

    print("trace      duration  min   mean  max   shape")
    descriptions = {
        "sys": "plateau then sharp sustained drop",
        "etc": "diurnal dip then recovery",
        "sap": "staircase decline",
        "nlanr": "mid-trace peak",
        "microsoft": "bursty gradual decline",
    }
    for name in sorted(TRACE_FACTORIES):
        trace = make_trace(name, duration_s=args.duration).normalised()
        values = trace.values
        print(
            f"{name:10s} {trace.duration_s:7d}s  {values.min():.2f}  "
            f"{values.mean():.2f}  {values.max():.2f}  "
            f"{descriptions[name]}"
        )
    return 0


def _add_traces(sub: argparse._SubParsersAction) -> None:
    traces = sub.add_parser("traces", help="describe the demand traces")
    traces.add_argument("--duration", type=int, default=1500)
    traces.set_defaults(func=_cmd_traces)


def _cmd_fusecache(args: argparse.Namespace) -> int:
    from repro.core.fusecache import (
        fuse_cache_detailed,
        kway_merge_top_n,
        lower_bound_comparisons,
        sort_merge_top_n,
    )

    n, k = args.items, args.lists
    lists = [
        [float(n * k - (j * k + i)) for j in range(n)] for i in range(k)
    ]
    pick = n * k // 2
    print(f"selecting the {pick:,} hottest of {n * k:,} items "
          f"({k} lists x {n:,})")
    for name, algorithm in (
        ("FuseCache", lambda: fuse_cache_detailed(lists, pick)),
        ("k-way merge", lambda: kway_merge_top_n(lists, pick)),
        ("full sort", lambda: sort_merge_top_n(lists, pick)),
    ):
        start = time.perf_counter()
        result = algorithm()
        elapsed = time.perf_counter() - start
        print(f"  {name:12s} {elapsed * 1000:10.2f} ms")
        if name == "FuseCache":
            print(
                f"  {'':12s} {result.comparisons:,} comparisons in "
                f"{result.rounds} rounds (lower bound "
                f"{lower_bound_comparisons(pick, k):,.0f})"
            )
    return 0


def _add_fusecache(sub: argparse._SubParsersAction) -> None:
    fusecache = sub.add_parser(
        "fusecache", help="FuseCache vs merge baselines"
    )
    fusecache.add_argument("--items", type=int, default=65_536)
    fusecache.add_argument("--lists", type=int, default=8)
    fusecache.set_defaults(func=_cmd_fusecache)


def _cmd_mrc(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.cache_analysis.mimir import MimirProfiler
    from repro.cache_analysis.mrc import HitRateCurve
    from repro.cache_analysis.shards import ShardsProfiler
    from repro.cache_analysis.stack_distance import StackDistanceProfiler
    from repro.sim.experiment import ExperimentConfig, build_stack

    config = ExperimentConfig(policy="baseline", seed=args.seed)
    dataset, generator, *_ = build_stack(config)
    keys = generator.key_stream(args.requests)
    if args.profiler == "exact":
        profiler = StackDistanceProfiler(args.requests)
    elif args.profiler == "shards":
        profiler = ShardsProfiler(0.1, args.requests)
    else:
        profiler = MimirProfiler()
    start = time.perf_counter()
    for key in keys:
        profiler.record(key)
    histogram, cold = profiler.histogram()
    curve = HitRateCurve(histogram, cold)
    elapsed = time.perf_counter() - start
    print(
        f"{args.profiler} profile of {args.requests:,} requests in "
        f"{elapsed:.2f}s (max hit rate {curve.max_hit_rate:.3f})"
    )
    print("cache items   hit rate")
    for capacity in np.geomspace(
        100, max(101, curve.max_capacity), num=12
    ).astype(int):
        print(f"{capacity:11,d}   {curve.hit_rate(int(capacity)):.3f}")
    return 0


def _add_mrc(sub: argparse._SubParsersAction) -> None:
    mrc = sub.add_parser("mrc", help="profile a hit-rate curve")
    mrc.add_argument("--requests", type=int, default=100_000)
    mrc.add_argument(
        "--profiler",
        choices=["exact", "mimir", "shards"],
        default="mimir",
    )
    mrc.add_argument("--seed", type=int, default=3)
    mrc.set_defaults(func=_cmd_mrc)


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.analysis.cost import (
        MEMCACHED_NODE,
        WEB_NODE,
        EC2_COMPUTE_HOURLY,
        EC2_MEMORY_HOURLY,
        cost_premium,
        power_premium,
        power_watts,
    )

    print("Section II-B cost/energy model:")
    print(
        f"  web node   (2 sockets, 12 GB): {power_watts(WEB_NODE):6.1f} W"
    )
    print(
        "  cache node (1 socket, 72 GB):  "
        f"{power_watts(MEMCACHED_NODE):6.1f} W  "
        f"(+{power_premium():.0%} power)"
    )
    print(
        f"  EC2: ${EC2_COMPUTE_HOURLY:.3f}/hr compute vs "
        f"${EC2_MEMORY_HOURLY:.3f}/hr memory (+{cost_premium():.0%} cost)"
    )
    return 0


def _add_cost(sub: argparse._SubParsersAction) -> None:
    cost = sub.add_parser("cost", help="Section II-B cost/energy model")
    cost.set_defaults(func=_cmd_cost)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_digest

    print(render_digest(args.out_dir))
    return 0


def _add_report(sub: argparse._SubParsersAction) -> None:
    report = sub.add_parser(
        "report", help="paper-vs-measured digest from benchmark outputs"
    )
    report.add_argument(
        "--out-dir",
        default="benchmarks/out",
        help="directory of benchmark report files",
    )
    report.set_defaults(func=_cmd_report)


def register(sub: argparse._SubParsersAction) -> None:
    """Add this group's subcommands to the top-level parser."""
    for add in (
        _add_run,
        _add_scenario,
        _add_traces,
        _add_fusecache,
        _add_mrc,
        _add_cost,
        _add_report,
    ):
        add(sub)

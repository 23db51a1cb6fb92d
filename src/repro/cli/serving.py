"""Long-running live-tier subcommands: serve, proxy, serve-cluster,
controlplane.

Each boots something, prints a banner, and then blocks until a signal
or ``--duration`` -- :func:`_serve_until_stopped` is that shared body.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.cli._shared import parse_targets, sample_fraction, shutdown_signals

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable


def _live_telemetry(args: argparse.Namespace, process: str):
    """Telemetry for a live serving command, or None when obs is off."""
    if not (args.obs or args.obs_jsonl):
        return None
    from repro.obs import create_telemetry

    return create_telemetry(
        process, trace_sample=args.trace_sample, trace_seed=args.trace_seed
    )


def _serve_until_stopped(
    args: argparse.Namespace,
    banner: "Iterable[str]",
    stop: "Callable[[], None]",
    verb: str = "serving",
    telemetry=None,
    sanitizers: "Iterable[object]" = (),
    epilogue: "Callable[[], Iterable[str]] | None" = None,
) -> int:
    """Banner, block until a signal or ``--duration``, drain, report.

    After ``stop()``: the spans and metrics go to ``--obs-jsonl``, each loop
    sanitizer prints its verdict (exit code 1 on findings), then the
    ``epilogue`` lines and ``stopped.``.
    """
    try:
        with shutdown_signals() as wait_for_signal:
            for line in banner:
                print(line, flush=True)
            if args.duration is not None:
                print(f"{verb} for {args.duration:.0f}s...", flush=True)
            else:
                print(f"{verb}; SIGINT/SIGTERM to stop", flush=True)
            signal_name = wait_for_signal(args.duration)
        if signal_name:
            print(f"received {signal_name}; draining...", flush=True)
    finally:
        stop()
    if telemetry is not None and args.obs_jsonl is not None:
        from repro.obs.export import write_jsonl

        write_jsonl(args.obs_jsonl, telemetry.tracer, telemetry.metrics)
        count = len(telemetry.tracer.spans)
        print(f"spans -> {args.obs_jsonl} ({count} spans)", flush=True)
    code = 0
    for sanitizer in sanitizers:
        if sanitizer is None:
            continue
        report = sanitizer.report()  # type: ignore[attr-defined]
        if report["clean"]:
            print("sanitizer: loop clean", flush=True)
            continue
        code = 1
        for line in report["findings"]:
            print(f"sanitizer: {line}", flush=True)
    for line in epilogue() if epilogue is not None else ():
        print(line, flush=True)
    print("stopped.", flush=True)
    return code


def _endpoint_lines(endpoints: dict[str, tuple[str, int]]) -> list[str]:
    return [
        f"  {name}  {host}:{port}"
        for name, (host, port) in sorted(endpoints.items())
    ]


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.net.server import LiveClusterHarness

    names = [f"live-{index:02d}" for index in range(args.nodes)]
    telemetry = _live_telemetry(args, "serve")
    harness = LiveClusterHarness(
        names,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        host=args.host,
        port_base=args.port,
        telemetry=telemetry,
        metrics=telemetry.metrics if telemetry is not None else None,
        sanitize=args.sanitize,
    )
    harness.start()
    return _serve_until_stopped(
        args,
        [
            f"live cluster up ({args.nodes} nodes):",
            *_endpoint_lines(harness.endpoints),
        ],
        harness.stop,
        telemetry=telemetry,
        sanitizers=[harness.sanitizer],
    )


def _add_cluster_flags(
    command: argparse.ArgumentParser, nodes_help: str, port_help: str
) -> None:
    """Flags every self-hosting serve command takes."""
    command.add_argument("--nodes", type=int, default=4, help=nodes_help)
    command.add_argument(
        "--memory-mb", type=int, default=8, help="cache MB per node"
    )
    command.add_argument("--host", default="127.0.0.1", help="bind address")
    command.add_argument("--port", type=int, default=0, help=port_help)
    command.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit (default: until a signal)",
    )


def _add_obs_flags(command: argparse.ArgumentParser) -> None:
    """Shared live-observability flags for serving commands."""
    command.add_argument(
        "--obs",
        action="store_true",
        help="enable live metrics + tracing (stats obs scrape surface)",
    )
    command.add_argument(
        "--obs-jsonl",
        default=None,
        help="export live spans + metrics on shutdown (implies --obs)",
    )
    command.add_argument(
        "--trace-sample",
        type=sample_fraction,
        default=1.0,
        help="fraction of requests that start a live trace",
    )
    command.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed for the trace sampling/id generator",
    )


def _add_serve(sub: argparse._SubParsersAction) -> None:
    serve = sub.add_parser(
        "serve",
        help="boot a live asyncio Memcached cluster on localhost",
    )
    _add_cluster_flags(
        serve,
        "node servers to boot",
        "base port (node i listens on port+i); 0 picks free ports",
    )
    serve.add_argument(
        "--sanitize",
        action="store_true",
        help="run the loop under asyncio debug + blocking-call trap",
    )
    _add_obs_flags(serve)
    serve.set_defaults(func=_cmd_serve)


def _cmd_proxy(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.proxy.router import ProxyConfig
    from repro.proxy.server import ProxyHarness

    names = [f"live-{index:02d}" for index in range(args.nodes)]
    config = ProxyConfig(
        replication_factor=args.replicas,
        failure_threshold=args.failure_threshold,
        open_duration_s=args.open_duration,
    )
    telemetry = _live_telemetry(args, "proxy")
    harness = ProxyHarness(
        names,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        config=config,
        host=args.host,
        proxy_port=args.port,
        telemetry=telemetry,
        sanitize=args.sanitize,
    )
    harness.start()
    host, port = harness.proxy_endpoint
    return _serve_until_stopped(
        args,
        [
            f"proxy up at {host}:{port} over {args.nodes} backends:",
            *_endpoint_lines(harness.backends.endpoints),
        ],
        harness.stop,
        telemetry=telemetry,
        sanitizers=[harness.sanitizer],
    )


def _add_proxy(sub: argparse._SubParsersAction) -> None:
    proxy = sub.add_parser(
        "proxy",
        help="boot a live cluster behind an mcrouter-style proxy",
    )
    _add_cluster_flags(
        proxy,
        "backend servers to boot",
        "proxy listen port; 0 picks a free port",
    )
    proxy.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="extra copies per promoted hot key (0 disables)",
    )
    proxy.add_argument(
        "--failure-threshold",
        type=int,
        default=3,
        help="consecutive failures that trip a backend's breaker",
    )
    proxy.add_argument(
        "--open-duration",
        type=float,
        default=1.0,
        help="seconds a tripped breaker stays open before probing",
    )
    proxy.add_argument(
        "--sanitize",
        action="store_true",
        help="run both loops under asyncio debug + blocking-call trap",
    )
    _add_obs_flags(proxy)
    proxy.set_defaults(func=_cmd_proxy)


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.net.procs import ProcessClusterHarness

    names = [f"proc-{index:02d}" for index in range(args.nodes)]
    harness = ProcessClusterHarness(
        names,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        host=args.host,
        port_base=args.port,
        restart_crashed=args.restart_crashed,
    )
    harness.start()
    pids = harness.pids
    return _serve_until_stopped(
        args,
        [
            f"process cluster up ({args.nodes} nodes, one OS process each):",
            *(
                f"  {name}  {host}:{port}  pid {pids[name]}"
                for name, (host, port) in sorted(harness.endpoints.items())
            ),
        ],
        harness.stop,
        epilogue=lambda: [
            f"crash: {event.node} (pid {event.pid}) exited {event.exitcode}"
            + (", restarted" if event.restarted else "")
            for event in harness.crash_events
        ],
    )


def _add_serve_cluster(sub: argparse._SubParsersAction) -> None:
    serve_cluster = sub.add_parser(
        "serve-cluster",
        help="boot a shared-nothing cluster: one OS process per node",
    )
    _add_cluster_flags(
        serve_cluster,
        "node processes to spawn",
        "base port (node i listens on port+i); 0 picks free ports",
    )
    serve_cluster.add_argument(
        "--restart-crashed",
        action="store_true",
        help="respawn a crashed node process (cold) on the same port",
    )
    serve_cluster.set_defaults(func=_cmd_serve_cluster)


def _cmd_controlplane(args: argparse.Namespace) -> int:
    from repro.controlplane.daemon import ControlPlane, ControlPlaneConfig
    from repro.core.autoscaler import (
        AutoScaler,
        AutoScalerConfig,
        ScalingEngine,
        ScalingEngineConfig,
    )
    from repro.memcached.slab import PAGE_SIZE
    from repro.net.cluster import LiveCluster
    from repro.obs import create_telemetry

    endpoints = parse_targets(args.target)
    telemetry = create_telemetry("controlplane")
    engine = ScalingEngine(
        AutoScaler(
            AutoScalerConfig(
                db_capacity_rps=args.db_capacity,
                node_memory_bytes=args.memory_mb * PAGE_SIZE,
                bytes_per_item=args.bytes_per_item,
                min_nodes=args.min_nodes,
                max_nodes=args.max_nodes or len(endpoints),
            ),
            telemetry=telemetry,
        ),
        ScalingEngineConfig(
            evaluate_interval_s=args.interval,
            min_window=args.min_window,
            confirm_rounds=args.confirm_rounds,
            cooldown_s=args.cooldown,
        ),
    )
    live = LiveCluster(endpoints, timeout_s=args.timeout)
    control = ControlPlane(
        live,
        engine,
        config=ControlPlaneConfig(
            poll_interval_s=args.poll_interval,
            admin_host=args.admin_host,
            admin_port=args.admin_port,
        ),
        telemetry=telemetry,
    )

    def stop() -> None:
        control.stop()
        live.close()

    control.start()
    host, port = control.admin_endpoint
    return _serve_until_stopped(
        args,
        [
            f"control plane up over {len(endpoints)} nodes; "
            f"admin http://{host}:{port}",
            "  GET /status   GET /metrics   "
            'POST /scale {"target": N}   POST /drain/<node>',
            "  note: automatic decisions need a key feed "
            "(engine window); admin commands always work",
        ],
        stop,
        verb="supervising",
        epilogue=lambda: [
            f"  polls {control.status()['polls']}  "
            f"migrations {len(control.migrations)}  "
            f"events {len(control.events)}",
            *(
                f"    {migration['action']} {migration['changed']} "
                f"({migration['source']}, {migration['outcome']})"
                for migration in control.migrations
            ),
        ],
    )


def _add_controlplane(sub: argparse._SubParsersAction) -> None:
    cplane = sub.add_parser(
        "controlplane",
        help="autoscaling daemon over a live tier, with a JSON admin API",
    )
    cplane.add_argument(
        "--target",
        action="append",
        required=True,
        metavar="NAME=HOST:PORT",
        help="node endpoint to supervise (repeatable)",
    )
    cplane.add_argument(
        "--admin-host", default="127.0.0.1", help="admin API bind host"
    )
    cplane.add_argument(
        "--admin-port",
        type=int,
        default=0,
        help="admin API port (0 = ephemeral)",
    )
    cplane.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between stat polls",
    )
    cplane.add_argument(
        "--db-capacity",
        type=float,
        default=10_000.0,
        help="r_DB: requests/s the backing database absorbs",
    )
    cplane.add_argument(
        "--memory-mb",
        type=int,
        default=64,
        help="per-node memory in MiB-sized pages (node_memory_bytes)",
    )
    cplane.add_argument(
        "--bytes-per-item",
        type=float,
        default=128.0,
        help="average cached-item footprint",
    )
    cplane.add_argument(
        "--min-nodes", type=int, default=1, help="scale-in floor"
    )
    cplane.add_argument(
        "--max-nodes",
        type=int,
        default=0,
        help="scale-out ceiling (0 = number of targets)",
    )
    cplane.add_argument(
        "--interval",
        type=float,
        default=60.0,
        help="seconds between AutoScaler evaluations",
    )
    cplane.add_argument(
        "--min-window",
        type=int,
        default=50_000,
        help="key samples required before the engine evaluates",
    )
    cplane.add_argument(
        "--confirm-rounds",
        type=int,
        default=2,
        help="consecutive same-direction decisions before acting",
    )
    cplane.add_argument(
        "--cooldown",
        type=float,
        default=300.0,
        help="seconds after an action before the next may fire",
    )
    cplane.add_argument(
        "--duration",
        type=float,
        default=None,
        help="supervise for N seconds then exit (default: until signal)",
    )
    cplane.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-socket-operation timeout in seconds",
    )
    cplane.set_defaults(func=_cmd_controlplane)


def register(sub: argparse._SubParsersAction) -> None:
    """Add this group's subcommands to the top-level parser."""
    for add in (_add_serve, _add_proxy, _add_serve_cluster, _add_controlplane):
        add(sub)

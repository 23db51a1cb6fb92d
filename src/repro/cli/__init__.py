"""Command-line interface for the ElMem reproduction.

Usage (after ``pip install -e .``):

    python -m repro run --trace sys --policy elmem --duration 900
    python -m repro scenario --name sys --policies baseline elmem
    python -m repro traces
    python -m repro fusecache --items 65536 --lists 8
    python -m repro mrc --requests 100000 --profiler mimir
    python -m repro cost
    python -m repro check src/repro
    python -m repro serve --nodes 4 --port 11300
    python -m repro proxy --nodes 4 --port 11311
    python -m repro proxy-chaos --nodes 4 --json chaos.json
    python -m repro live-migrate --nodes 4 --retire 1

Every subcommand prints a human-readable report to stdout; ``run`` can
additionally export the per-second metrics as CSV/JSON.

One module per group, each subcommand's parser next to its handler:

- :mod:`repro.cli.sim` -- run, scenario, traces, fusecache, mrc, cost,
  report (the simulator and the paper's analyses);
- :mod:`repro.cli.tooling` -- check, obs, top;
- :mod:`repro.cli.serving` -- serve, proxy, serve-cluster, controlplane
  (block until a signal);
- :mod:`repro.cli.scenarios` -- live-migrate, proxy-chaos, loadgen,
  controlplane-scenario (run to completion, write JSON for CI).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import scenarios, serving, sim, tooling


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ElMem (ICDCS 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in (sim, tooling, serving, scenarios):
        group.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

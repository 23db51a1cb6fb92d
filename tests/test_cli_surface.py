"""The CLI's public surface, pinned.

``PARENT_SURFACE`` is the set of subcommands and, per subcommand, every
option string (or positional name) with its default, captured from
``build_parser()`` before ``repro/cli.py`` became the ``repro/cli/``
package -- minus ``bench``, which was retired with the old perf gate
(``benchmarks/e2e`` is the performance ledger).  A flag that appears,
disappears or changes its default shows up here as a diff.
"""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.cli._shared import parse_targets

PARENT_SURFACE = {'run': {'--trace': 'etc',
         '--policy': 'elmem',
         '--duration': 900,
         '--seed': 3,
         '--scale': None,
         '--autoscale': False,
         '--plot': False,
         '--csv': None,
         '--json': None,
         '--trace-jsonl': None,
         '--prom': None},
 'obs': {'jsonl': None, '--width': 60, '--clock': 'sim', '--limit': 5},
 'scenario': {'--name': 'sys',
              '--policies': ['baseline', 'elmem'],
              '--duration': 900,
              '--seed': 3},
 'traces': {'--duration': 1500},
 'fusecache': {'--items': 65536, '--lists': 8},
 'mrc': {'--requests': 100000, '--profiler': 'mimir', '--seed': 3},
 'cost': {},
 'check': {'paths': None,
           '--list-rules': False,
           '--no-sim': False,
           '--strict-sim': False,
           '--json': False},
 'serve': {'--nodes': 4,
           '--memory-mb': 8,
           '--host': '127.0.0.1',
           '--port': 0,
           '--duration': None,
           '--sanitize': False,
           '--obs': False,
           '--obs-jsonl': None,
           '--trace-sample': 1.0,
           '--trace-seed': 0},
 'proxy': {'--nodes': 4,
           '--memory-mb': 8,
           '--host': '127.0.0.1',
           '--port': 0,
           '--replicas': 1,
           '--failure-threshold': 3,
           '--open-duration': 1.0,
           '--duration': None,
           '--sanitize': False,
           '--obs': False,
           '--obs-jsonl': None,
           '--trace-sample': 1.0,
           '--trace-seed': 0},
 'top': {'--proxy': None,
         '--node': None,
         '--interval': 2.0,
         '--iterations': None,
         '--once': None,
         '--timeout': 5.0,
         '--width': 78},
 'proxy-chaos': {'--nodes': 4,
                 '--keys': 64,
                 '--ops': 200,
                 '--seed': 0,
                 '--json': None,
                 '--trace-sample': 0.05,
                 '--trace-jsonl': None,
                 '--window-json': None},
 'controlplane': {'--target': None,
                  '--admin-host': '127.0.0.1',
                  '--admin-port': 0,
                  '--poll-interval': 1.0,
                  '--db-capacity': 10000.0,
                  '--memory-mb': 64,
                  '--bytes-per-item': 128.0,
                  '--min-nodes': 1,
                  '--max-nodes': 0,
                  '--interval': 60.0,
                  '--min-window': 50000,
                  '--confirm-rounds': 2,
                  '--cooldown': 300.0,
                  '--duration': None,
                  '--timeout': 5.0},
 'controlplane-scenario': {'--nodes': 4,
                           '--retire': 1,
                           '--rate': 600.0,
                           '--duration': 15.0,
                           '--seed': 7,
                           '--keys': 3000,
                           '--memory-mb': 8,
                           '--poll-interval': 0.5,
                           '--interval': 1.0,
                           '--confirm-rounds': 2,
                           '--min-window': 1500,
                           '--timeout': 5.0,
                           '--json': None,
                           '--window-json': None,
                           '--trace-jsonl': None},
 'live-migrate': {'--nodes': 4,
                  '--retire': 1,
                  '--items': 2000,
                  '--value-bytes': 64,
                  '--seed': 7,
                  '--memory-mb': 8,
                  '--timeout': 5.0,
                  '--no-verify': False,
                  '--json': None,
                  '--trace-jsonl': None,
                  '--sanitize': False,
                  '--procs': False},
 'serve-cluster': {'--nodes': 4,
                   '--memory-mb': 8,
                   '--host': '127.0.0.1',
                   '--port': 0,
                   '--duration': None,
                   '--restart-crashed': False},
 'loadgen': {'--target': None,
             '--rate': 1000.0,
             '--duration': 10.0,
             '--seed': 0,
             '--nodes': 3,
             '--memory-mb': 8,
             '--keys': 5000,
             '--set-fraction': 0.1,
             '--value-bytes': 64,
             '--trace': None,
             '--migrate': False,
             '--retire': 1,
             '--migrate-at': 0.35,
             '--timeout': 5.0,
             '--json': None},
 'report': {'--out-dir': 'benchmarks/out'}}


def surface(parser: argparse.ArgumentParser) -> dict:
    sub = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {
            (" ".join(action.option_strings) or action.dest): action.default
            for action in command._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, command in sub.choices.items()
    }


def test_surface_matches_the_pre_split_parser():
    assert surface(build_parser()) == PARENT_SURFACE


def test_every_subcommand_has_a_handler():
    parser = build_parser()
    required = {
        "obs": ["x.jsonl"],
        "top": ["--proxy", "h:1"],
        "controlplane": ["--target", "h:1"],
    }
    for name in PARENT_SURFACE:
        args = parser.parse_args([name, *required.get(name, [])])
        assert callable(args.func), name


def test_bench_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestParseTargets:
    def test_named_and_positional_specs(self):
        assert parse_targets(["a=127.0.0.1:11211", "10.0.0.2:11212"]) == {
            "a": ("127.0.0.1", 11211),
            "target-01": ("10.0.0.2", 11212),
        }

    def test_duplicate_name_exits_instead_of_dropping_a_node(self):
        with pytest.raises(SystemExit, match="duplicate --target name 'a'"):
            parse_targets(["a=h:1", "a=h:2"])

    def test_generated_name_colliding_with_a_given_one_exits(self):
        with pytest.raises(SystemExit, match="duplicate"):
            parse_targets(["target-01=h:1", "h:2"])

    @pytest.mark.parametrize(
        "spec", ["=h:1", "a=", "a=h", "a=h:port", "h", ":1", ""]
    )
    def test_malformed_spec_exits_with_the_spec_named(self, spec):
        with pytest.raises(SystemExit, match="expected .*HOST:PORT"):
            parse_targets([spec])


@pytest.mark.parametrize("command", ["serve", "proxy", "proxy-chaos"])
@pytest.mark.parametrize("value", ["-0.1", "5", "nan"])
def test_trace_sample_outside_the_unit_interval_exits(command, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([command, "--trace-sample", value])
    assert excinfo.value.code == 2
    assert "must be in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "proxy", "proxy-chaos"])
def test_trace_sample_inside_the_unit_interval_parses(command):
    for value in ("0", "0.25", "1"):
        args = build_parser().parse_args([command, "--trace-sample", value])
        assert args.trace_sample == float(value)

"""What a serving process loads: package ``__init__``s re-export nothing.

A node, the proxy and the client import only the modules they run; the
simulator, numpy, the linter and the AutoScaler stay out, and only the
controller loads the ``Master``.  Each entry set is imported in a clean
interpreter, because this test process has long since loaded everything.
"""

import json
import subprocess
import sys

import pytest

from repro.memcached.slab import PAGE_SIZE
from repro.net.procs import ProcessClusterHarness

ENTRY_SETS = {
    "node": ["repro.net.procs", "repro.net.server", "repro.memcached.node"],
    "proxy": ["repro.proxy.server"],
    "client": ["repro.net.client", "repro.hashing.ketama"],
    "controller": ["repro.core.master", "repro.net.cluster"],
}

FORBIDDEN = (
    "numpy",
    "repro.sim",
    "repro.cache_analysis",
    "repro.analysis",
    "repro.workloads",
    "repro.check.lint",
    "repro.check.rules",
    "repro.core.autoscaler",
    "repro.core.policies",
)


def loaded_modules(statement: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``statement``."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(json.loads(out))


def matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


@pytest.mark.parametrize("entry", sorted(ENTRY_SETS))
def test_serving_process_loads_only_what_it_serves(entry):
    modules = loaded_modules(f"import {', '.join(ENTRY_SETS[entry])}")
    forbidden = FORBIDDEN
    if entry != "controller":
        forbidden += ("repro.core.master",)
    leaked = sorted(
        name for name in modules for prefix in forbidden if matches(name, prefix)
    )
    assert not leaked, f"{entry} loads {leaked}"


def test_cli_parser_builds_without_numpy():
    modules = loaded_modules(
        "import repro.cli\nrepro.cli.build_parser()"
    )
    assert "numpy" not in modules


@pytest.mark.proc
def test_spawned_node_maps_no_numpy():
    with ProcessClusterHarness(["n0"], memory_per_node=4 * PAGE_SIZE) as harness:
        pid = harness.pids["n0"]
        with open(f"/proc/{pid}/maps") as maps:
            numpy_maps = [line for line in maps if "/numpy" in line]
    assert not numpy_maps, numpy_maps[:3]

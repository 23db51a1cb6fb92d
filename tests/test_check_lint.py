"""The REPnnn lint rules each fire on a minimal bad fixture.

One synthetic fixture per rule, plus the scoping and suppression
behaviour the framework promises: rules stay inside their packages, the
``repro: allow[CODE]`` marker silences a single line, and the real tree
under ``src/repro`` is clean.
"""

from pathlib import Path

import pytest

from repro.check.lint import lint_paths, lint_source
from repro.check.rules import rule_catalogue

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(violations):
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# One bad fixture per rule
# ----------------------------------------------------------------------


def test_rep001_wall_clock_in_sim_code():
    source = (
        "import time\n"
        "def measure():\n"
        "    return time.perf_counter()\n"
    )
    assert "REP001" in codes(lint_source(source, "repro.sim.fake"))


def test_rep001_wall_clock_import_from():
    source = "from time import perf_counter\n"
    assert "REP001" in codes(lint_source(source, "repro.core.fake"))


def test_rep001_datetime_now():
    source = (
        "import datetime\n"
        "def stamp():\n"
        "    return datetime.datetime.now()\n"
    )
    assert "REP001" in codes(lint_source(source, "repro.workloads.fake"))


def test_rep002_module_global_rng():
    source = "import random\nx = random.random()\n"
    assert "REP002" in codes(lint_source(source, "repro.sim.fake"))


def test_rep002_unseeded_random_instance():
    source = "import random\nrng = random.Random()\n"
    assert "REP002" in codes(lint_source(source, "repro.sim.fake"))


def test_rep002_unseeded_numpy_default_rng():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert "REP002" in codes(lint_source(source, "repro.sim.fake"))


def test_rep003_mutable_default_argument():
    source = "def collect(into=[]):\n    return into\n"
    assert "REP003" in codes(lint_source(source, "repro.analysis.fake"))


def test_rep005_float_equality_on_sim_time():
    source = (
        "def same(a, b):\n"
        "    return a.last_access == b.last_access\n"
    )
    assert "REP005" in codes(lint_source(source, "repro.sim.fake"))


def test_rep005_suffix_match():
    source = "def check(created_at, x):\n    return created_at != x\n"
    assert "REP005" in codes(lint_source(source, "repro.core.fake"))


def test_rep006_private_cache_state_outside_memcached():
    source = (
        "def poke(node):\n"
        "    return node._table\n"
    )
    assert "REP006" in codes(lint_source(source, "repro.core.fake"))


def test_rep007_missing_annotations_on_public_function():
    source = "def route(key):\n    return key\n"
    found = codes(lint_source(source, "repro.core.fake"))
    # Both the unannotated parameter and the missing return fire.
    assert found.count("REP007") == 2


def test_rep008_print_in_library_code():
    source = "def report():\n    print('done')\n"
    assert "REP008" in codes(lint_source(source, "repro.obs.fake"))


# ----------------------------------------------------------------------
# Scoping, clean code, suppression
# ----------------------------------------------------------------------


def test_wall_clock_allowed_outside_simulated_packages():
    source = "import time\nstart = time.perf_counter()\n"
    assert lint_source(source, "repro.obs.fake") == []
    assert lint_source(source, "repro.cli") == []


def test_private_state_allowed_inside_memcached_and_on_self():
    source = "def poke(node):\n    return node._table\n"
    # (REP007 still applies inside repro.memcached; only REP006 is off.)
    assert "REP006" not in codes(lint_source(source, "repro.memcached.fake"))
    on_self = (
        "class Node:\n"
        "    def size(self) -> int:\n"
        "        return len(self._table)\n"
    )
    assert lint_source(on_self, "repro.core.fake") == []


def test_seeded_rng_and_sentinel_comparisons_are_clean():
    source = (
        "import random\n"
        "import numpy as np\n"
        "rng = random.Random(3)\n"
        "gen = np.random.default_rng(3)\n"
        "def never_expires(expires_at):\n"
        "    return expires_at == 0.0\n"
        "def unset(deadline):\n"
        "    return deadline == None\n"
    )
    assert lint_source(source, "repro.sim.fake") == []


def test_print_allowed_in_cli_and_analysis():
    source = "def report():\n    print('done')\n"
    assert lint_source(source, "repro.cli") == []
    assert lint_source(source, "repro.analysis.fake") == []


def test_annotated_and_private_functions_pass_rep007():
    source = (
        "def route(key: str) -> str:\n"
        "    return key\n"
        "def _helper(key):\n"
        "    return key\n"
    )
    assert lint_source(source, "repro.core.fake") == []


def test_allow_marker_suppresses_a_single_line():
    flagged = "def report():\n    print('done')\n"
    allowed = (
        "def report():\n"
        "    print('done')  # repro: allow[REP008]\n"
    )
    assert codes(lint_source(flagged, "repro.obs.fake")) == ["REP008"]
    assert lint_source(allowed, "repro.obs.fake") == []


def test_allow_marker_is_code_specific():
    source = (
        "def report():\n"
        "    print('done')  # repro: allow[REP001]\n"
    )
    assert "REP008" in codes(lint_source(source, "repro.obs.fake"))


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------


def test_source_tree_is_clean():
    violations = lint_paths([SRC])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_catalogue_lists_all_eight_rules():
    # REP001-REP008 minus REP004: bare `except:` is ruff's E722, and a
    # retired code is never reused.
    entries = [row for row in rule_catalogue() if row[0].startswith("REP0")]
    assert [code for code, _, _ in entries] == [
        f"REP00{i}" for i in (1, 2, 3, 5, 6, 7, 8)
    ]


def test_violation_render_format():
    violations = lint_source(
        "def report():\n    print('x')\n", "repro.obs.fake"
    )
    assert len(violations) == 1
    rendered = violations[0].render()
    assert "REP008" in rendered and "no-print-in-library" in rendered
    assert rendered.startswith("<repro.obs.fake>:2:")


@pytest.mark.parametrize("bad_path", ["src/repro/sim", "src/repro/core"])
def test_lint_paths_accepts_subdirectories(bad_path):
    root = SRC.parent.parent / bad_path
    assert lint_paths([root]) == []

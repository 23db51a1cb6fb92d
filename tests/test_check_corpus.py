"""Every seeded corpus violation fires exactly where marked.

``tests/fixtures/check_corpus`` holds one deliberately-broken snippet
per REP1xx concurrency rule.  The assertions here pin each rule to its ``# expect: REPnnn`` lines and *nowhere else* --
each snippet doubles as a negative fixture for the other rules -- and
confirm the real tree stays clean under the same packs.
"""

import re
from pathlib import Path

import pytest

from repro.check.async_rules import ASYNC_RULES
from repro.check.lint import lint_paths
from repro.check.lint import Linter, module_name_for
from repro.check.rules import DEFAULT_RULES

CORPUS = Path(__file__).resolve().parent / "fixtures" / "check_corpus"
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

EXPECT = re.compile(r"#\s*expect:\s*(REP\d{3})")
MODULE = re.compile(r"#\s*module:\s*(\S+)")

RULE_FIXTURES = sorted(CORPUS.glob("rep1*.py"))


def expected_markers(path: Path) -> set[tuple[str, int]]:
    """``(code, line)`` pairs from the ``# expect:`` markers in a file."""
    return {
        (match.group(1), lineno)
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for match in [EXPECT.search(line)]
        if match is not None
    }


def fixture_module(path: Path) -> str:
    """Module name from the ``# module:`` directive, else the bare stem."""
    match = MODULE.search(path.read_text())
    return match.group(1) if match is not None else module_name_for(path)


# ----------------------------------------------------------------------
# REP1xx corpus
# ----------------------------------------------------------------------


def test_corpus_covers_every_async_rule():
    seeded = {path.name.split("_")[0].upper() for path in RULE_FIXTURES}
    assert seeded == {rule.code for rule in ASYNC_RULES}


@pytest.mark.parametrize(
    "path", RULE_FIXTURES, ids=lambda path: path.stem
)
def test_async_rules_fire_exactly_at_markers(path):
    linter = Linter(list(ASYNC_RULES))
    found = {
        (violation.code, violation.line)
        for violation in linter.check_source(
            path.read_text(),
            path=str(path),
            module=fixture_module(path),
        )
    }
    markers = expected_markers(path)
    assert markers, f"{path.name} has no # expect: markers"
    assert found == markers


def test_async_pack_is_clean_on_source_tree():
    violations = lint_paths(
        [SRC], rules=tuple(DEFAULT_RULES) + tuple(ASYNC_RULES)
    )
    assert violations == []


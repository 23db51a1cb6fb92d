"""Every seeded corpus violation fires exactly where marked.

``tests/fixtures/check_corpus`` holds one deliberately-broken snippet
per REP1xx concurrency rule.  The assertions here pin each rule to its
``# expect: REPnnn`` lines and *nowhere else* -- each snippet doubles as
a negative fixture for every other rule in the catalogue -- and confirm
that the real tree and the corpus's on-disk location stay clean.
"""

import re
import shutil
from pathlib import Path

import pytest

from repro.check.lint import Linter, lint_paths, module_name_for
from repro.check.rules import RULES

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
    assert seeded == {
        rule.code for rule in RULES if rule.code.startswith("REP1")
    }


@pytest.mark.parametrize(
    "path", RULE_FIXTURES, ids=lambda path: path.stem
)
def test_async_rules_fire_exactly_at_markers(path):
    linter = Linter(RULES)
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
    # On disk the corpus is not inside the ``repro`` package, so the
    # library-scoped REP1xx rules skip it and ``repro check src/repro tests`` stays
    # clean; only the ``# module:`` directive above pins it into scope.
    violations = lint_paths([SRC, CORPUS])
    assert violations == [], "\n".join(v.render() for v in violations)



def test_module_names_follow_packages_not_the_checkout(tmp_path):
    # A clone under a directory called ``repro`` (GitHub Actions checks
    # out to .../<repo>/<repo>) must not pull tests/ into repro.*.
    checkout = tmp_path / "repro"
    corpus = checkout / "tests" / "fixtures" / "check_corpus"
    shutil.copytree(CORPUS, corpus)
    (checkout / "tests" / "__init__.py").touch()
    shutil.copy(Path(__file__).parent / "test_loopcheck.py", checkout / "tests")
    package = checkout / "src" / "repro" / "net"
    package.mkdir(parents=True)
    (package.parent / "__init__.py").touch()
    (package / "__init__.py").touch()

    assert module_name_for(package / "peer.py") == "repro.net.peer"
    assert module_name_for(package / "__init__.py") == "repro.net"
    assert module_name_for(checkout / "tests" / "test_loopcheck.py") == (
        "tests.test_loopcheck"
    )
    assert module_name_for(corpus / "rep101_blocking_call.py") == (
        "rep101_blocking_call"
    )
    violations = lint_paths([checkout / "tests"])
    assert violations == [], "\n".join(v.render() for v in violations)

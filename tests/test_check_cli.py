"""The ``repro check`` subcommand and the strict-mode smoke runs."""

import json
from pathlib import Path

import pytest

from repro.check.rules import RULES
from repro.check.strict import (
    strict_fault_sweep_report,
    strict_smoke_report,
)
from repro.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro")


def test_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    # One catalogue: every code exactly once, in code order; bare
    # `except:` is ruff's E722, not a repo rule.
    expected = [f"REP00{index}" for index in (1, 2, 3, 5, 6, 7, 8)] + [
        f"REP10{index}" for index in range(1, 7)
    ]
    assert listed == expected
    assert [rule.code for rule in RULES] == expected
    assert len({rule.name for rule in RULES}) == len(RULES)


def test_check_lint_only_passes_on_source_tree(capsys):
    assert main(["check", "--no-sim", SRC]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_check_fails_on_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def collect(into=[]):\n    return into\n")
    assert main(["check", "--no-sim", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP003" in out and "lint: 1 violation(s)" in out


@pytest.mark.parametrize("name", ["src/repro/does_not_exist", "README.md"])
def test_check_rejects_a_path_it_cannot_lint(name, capsys):
    # A typo in a CI path must not pass as "lint: clean".
    path = str(Path(SRC).parent.parent / name)
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--no-sim", path])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "lint: clean" not in captured.out
    assert "neither a directory nor a .py file" in captured.err


def test_check_rejects_a_missing_default_path(tmp_path, capsys, monkeypatch):
    # With no paths, src/repro under the working directory is checked too.
    monkeypatch.chdir(tmp_path)
    assert main(["check", "--no-sim"]) == 2
    captured = capsys.readouterr()
    assert "lint: clean" not in captured.out
    assert "neither a directory nor a .py file" in captured.err


def test_check_full_run_includes_invariant_smoke(capsys):
    assert main(["check", SRC]) == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert "invariants:" in out and "0 violation(s)" in out


def test_strict_smoke_runs_checks_and_migrations():
    report = strict_smoke_report()
    assert report["violations"] == 0
    assert report["migrations"] >= 1
    assert report["checks_run"] > 0


@pytest.mark.slow
def test_strict_fault_sweep_completes_without_violations():
    report = strict_fault_sweep_report()
    assert report["violations"] == 0
    assert report["checks_run"] > 0
    assert report["migrations"] >= 1


# ----------------------------------------------------------------------
# One catalogue, machine output, annotations
# ----------------------------------------------------------------------


def test_check_async_passes_on_source_tree(capsys):
    # The lint half of CI's one pass: every rule over src/repro and tests.
    assert main(["check", "--no-sim", SRC, str(Path(__file__).parent)]) == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert "protocol:" not in out


def test_check_protocol_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--protocol", "--no-sim", SRC])
    assert exit_info.value.code == 2


def blocky(tmp_path: Path) -> Path:
    """A coroutine that blocks the loop, placed as ``repro.net.blocky``."""
    bad = tmp_path / "repro" / "net" / "blocky.py"
    bad.parent.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").touch()
    (bad.parent / "__init__.py").touch()
    bad.write_text(
        "import time\n"
        "async def poll():\n"
        "    time.sleep(0.1)\n"
    )
    return bad


def test_check_async_fails_on_a_blocking_coroutine(tmp_path, capsys):
    # The REP1xx rules run in the default pass: no flag selects them.
    assert main(["check", "--no-sim", str(blocky(tmp_path))]) == 1
    assert "REP101" in capsys.readouterr().out


def test_check_json_output_is_machine_readable(capsys):
    assert main(["check", "--no-sim", "--json", SRC]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is False
    assert payload["lint"] == []
    assert "conformance" not in payload


def test_check_json_with_violations_stays_json(tmp_path, capsys, monkeypatch):
    # Annotations never leak into --json, even under GitHub Actions.
    monkeypatch.setenv("GITHUB_ACTIONS", "true")
    bad = blocky(tmp_path)
    assert main(["check", "--no-sim", "--json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True
    [finding] = payload["lint"]
    assert finding["code"] == "REP101"
    assert (finding["path"], finding["line"], finding["col"]) == (str(bad), 3, 4)


def test_check_annotates_under_github_actions(tmp_path, capsys, monkeypatch):
    bad = blocky(tmp_path)
    monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
    assert main(["check", "--no-sim", str(bad)]) == 1
    assert "::error" not in capsys.readouterr().out
    monkeypatch.setenv("GITHUB_ACTIONS", "true")
    assert main(["check", "--no-sim", str(bad)]) == 1
    out = capsys.readouterr().out
    assert (
        f"::error file={bad},line=3,col=5,"
        "title=REP101 no-blocking-call-in-async::"
    ) in out


def test_annotation_messages_are_escaped(tmp_path, capsys, monkeypatch):
    # `%`, CR and LF would cut or garble a workflow command; line 0 is
    # clamped to the first line.
    from repro.check.lint import Violation

    monkeypatch.setattr(
        "repro.check.lint.lint_paths",
        lambda paths: [Violation("REP003", "x", "a.py", 0, 0, "50%\r\nmore")],
    )
    monkeypatch.setenv("GITHUB_ACTIONS", "true")
    assert main(["check", "--no-sim", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "::error file=a.py,line=1,col=1,title=REP003 x::50%25%0D%0Amore" in out

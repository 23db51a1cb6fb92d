"""The ``repro check`` subcommand and the strict-mode smoke runs."""

import json
from pathlib import Path

import pytest

from repro.check.strict import (
    strict_fault_sweep_report,
    strict_smoke_report,
)
from repro.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src" / "repro")


def test_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for index in range(1, 9):
        assert f"REP00{index}" in out
    # The full catalogue includes the async pack, and nothing else.
    for index in range(1, 7):
        assert f"REP10{index}" in out
    assert "REP2" not in out


def test_check_lint_only_passes_on_source_tree(capsys):
    assert main(["check", "--no-sim", SRC]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_check_fails_on_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def collect(into=[]):\n"
        "    try:\n"
        "        return into\n"
        "    except:\n"
        "        pass\n"
    )
    assert main(["check", "--no-sim", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP003" in out and "REP004" in out


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
# --async / machine output
# ----------------------------------------------------------------------


def test_check_async_passes_on_source_tree(capsys):
    assert main(["check", "--async", "--no-sim", SRC]) == 0
    out = capsys.readouterr().out
    assert "lint: clean" in out
    assert "protocol:" not in out


def test_check_protocol_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--protocol", "--no-sim", SRC])
    assert exit_info.value.code == 2


def test_check_async_fails_on_a_blocking_coroutine(tmp_path, capsys):
    bad = tmp_path / "blocky.py"
    bad.write_text(
        "import time\n"
        "async def poll():\n"
        "    time.sleep(0.1)\n"
    )
    assert main(["check", "--async", "--no-sim", str(bad)]) == 1
    assert "REP101" in capsys.readouterr().out


def test_check_json_output_is_machine_readable(capsys):
    assert (
        main(["check", "--async", "--no-sim", "--json", SRC])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is False
    assert payload["lint"] == []
    assert "conformance" not in payload


def test_check_sarif_and_annotations(tmp_path, capsys):
    bad = tmp_path / "blocky.py"
    bad.write_text(
        "import time\n"
        "async def poll():\n"
        "    time.sleep(0.1)\n"
    )
    sarif_path = tmp_path / "findings.sarif"
    assert (
        main(
            [
                "check",
                "--async",
                "--no-sim",
                "--sarif",
                str(sarif_path),
                "--annotate",
                str(bad),
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "::error file=" in out and "REP101" in out
    document = json.loads(sarif_path.read_text())
    assert document["version"] == "2.1.0"
    results = document["runs"][0]["results"]
    assert [result["ruleId"] for result in results] == ["REP101"]
    rule_ids = {
        rule["id"] for rule in document["runs"][0]["tool"]["driver"]["rules"]
    }
    assert "REP101" in rule_ids

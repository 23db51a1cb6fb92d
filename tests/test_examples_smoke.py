"""Smoke tests: the fast example scripts run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "OK -- scale-in without losing hot data." in out

    def test_fusecache_demo(self):
        out = run_example("fusecache_demo.py")
        assert "FuseCache" in out
        assert "polylog" in out

    def test_protocol_server(self):
        out = run_example("protocol_server.py")
        assert "VALUE greeting" in out
        assert "done." in out

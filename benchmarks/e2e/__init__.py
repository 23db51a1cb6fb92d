"""Live-tier benchmark: request path, proxy hop and warm scale-in under load.

The system under test always runs in child processes started here; this
process holds only the driver.  See ``README.md`` in this directory for
the glossary of workloads and metrics and how to read the output.

    PYTHONPATH=src python -m benchmarks.e2e --all --seed 1

The package measures the source tree it sits in: ``<repo>/src`` goes to
the front of ``sys.path`` so that an installed ``repro`` can never be
measured by mistake (spawned children inherit the same path).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

if SRC_DIR.is_dir() and str(SRC_DIR) not in sys.path[:1]:
    sys.path.insert(0, str(SRC_DIR))

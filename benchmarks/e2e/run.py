"""Script entry point: ``python3 benchmarks/e2e/run.py --workload ...``.

Puts the checkout's root on ``sys.path`` so that ``benchmarks.e2e`` is
importable from wherever the script is started (spawned children are
handed the same path), then hands over to :mod:`benchmarks.e2e.cli`.
"""

from __future__ import annotations

import sys
from pathlib import Path

# ``spawn`` re-imports this file as ``__mp_main__`` in every child; the
# guard keeps a child from starting a benchmark of its own.
if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e.cli import main

    sys.exit(main())

"""``python -m benchmarks.e2e`` -- see :mod:`benchmarks.e2e.cli`."""

from __future__ import annotations

import sys

from benchmarks.e2e.cli import main

# ``spawn`` re-imports this module in every child; without the guard a
# child would start a benchmark of its own instead of serving its node.
if __name__ == "__main__":
    sys.exit(main())

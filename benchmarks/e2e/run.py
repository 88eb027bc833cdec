"""Benchmark entry point: ``python3 benchmarks/e2e/run.py --workload NAME
--seed N --seconds S --trace 0|1`` (no ``--workload``: all four)."""

import sys
from pathlib import Path

# Import the harness as the ``benchmarks.e2e`` package, rooted at the
# checkout, whatever directory this script was started from.
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

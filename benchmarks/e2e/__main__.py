"""``python -m benchmarks.e2e {run,compare,baseline} ...``"""

import sys

from benchmarks.e2e import compare, harness

COMMANDS = {
    "run": harness.main,
    "compare": compare.main,
    "baseline": compare.baseline_main,
}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in COMMANDS:
        sys.exit(f"usage: python -m benchmarks.e2e {{{','.join(COMMANDS)}}} [args]")
    sys.exit(COMMANDS[sys.argv[1]](sys.argv[2:]))

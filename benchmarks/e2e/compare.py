"""Compare two sets of benchmark runs, and record a baseline.

``python -m benchmarks.e2e compare A.jsonl B.jsonl`` reads the records
``run --out`` appends (A: the parent commit, B: the change) and prints,
per workload and end-to-end metric, each side's median and quartiles,
the share of (A[i], B[i]) pairs B wins, and a verdict:

* ``improved``   -- B wins at least 9 in 10 pairs and its median beats A's
  by more than A's interquartile range;
* ``unresolved`` -- a side's spread (IQR / median) is wider than the
  metric's bound, unless every B run beats every A run;
* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unchanged``  -- otherwise.

``failed_frac`` (failed / attempted cells) must not rise.

``python -m benchmarks.e2e baseline RUNS.jsonl`` writes the medians of
those runs, with the machine they ran on, to ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.harness import BASELINE, ROOT, WORKLOADS

WIN_SHARE = 0.9

ROW = "{:12s} {:12s} {:>34s} {:>34s} {:>6s}  {}"


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    a: list[float], b: list[float], bound: float, better: str
) -> tuple[str, float]:
    """(verdict, share of pairs B wins) for one metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qb[1] - qa[1])
    if wins >= WIN_SHARE and gain > qa[2] - qa[0]:
        return "improved", wins
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    all_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if spread > bound and not all_better:
        return "unresolved", wins
    if -gain > bound * abs(qa[1]):
        return "regressed", wins
    return "unchanged", wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load(args.parent), load(args.change)
    status = 0
    print(ROW.format("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
                     "B wins", "verdict"))
    for workload in [w for w in WORKLOADS if w in runs_a and w in runs_b]:
        a_runs, b_runs = runs_a[workload], runs_b[workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            result, wins = verdict(a, b, metric["bound"], metric["better"])
            status |= result == "regressed"
            print(ROW.format(
                workload, name, _spread(a), _spread(b), f"{wins:.0%}", result
            ))
        frac_a, frac_b = _failed_frac(a_runs), _failed_frac(b_runs)
        result = "regressed" if frac_b > frac_a else "unchanged"
        status |= result == "regressed"
        print(ROW.format(
            workload, "failed_frac", f"{frac_a:.5g}", f"{frac_b:.5g}", "", result
        ))
    return int(status)


def _spread(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def _failed_frac(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def baseline_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e baseline")
    parser.add_argument("runs", type=Path)
    args = parser.parse_args(argv)
    import numpy

    workloads = {}
    for workload, records in load(args.runs).items():
        workloads[workload] = {
            name: statistics.median(r["metrics"][name]["value"] for r in records)
            for name in records[0]["metrics"]
        }
        workloads[workload]["runs"] = len(records)
    data = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": workloads,
    }
    BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One benchmark pass in a fresh process.

``python -m benchmarks.e2e.child --workload NAME --t0 STAMP ...`` imports
the program, opens the store if the workload uses one, stamps "ready"
(``setup_s`` is ready minus the parent's spawn stamp ``--t0``, both on
the monotonic clock), makes the workload's timed entry-point calls, then
-- untimed -- digests every computed cell and compares every
store-served cell with the computed one.  It prints one line,
``E2E-RESULT <json>``, for the parent harness.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from time import perf_counter

from benchmarks.e2e.layers import Tracer
from benchmarks.e2e.workloads import SCALES

RESULT_PREFIX = "E2E-RESULT "

#: Hex characters kept from each cell's sha256 digest.
DIGEST_CHARS = 16


def cell_digest(result) -> str:
    """sha256 of the cell's JSON report, as ``repro.experiments.report`` writes it."""
    from repro.experiments.report import dumps

    return hashlib.sha256(dumps(result).encode()).hexdigest()[:DIGEST_CHARS]


def run_pass(spec, seed: int, store=None, tracer: Tracer | None = None) -> dict:
    """Make the workload's timed calls; returns timings and checks.

    ``store`` is required when the workload has warm calls.  Digests and
    the warm-versus-cold comparison happen outside the timed region.
    """
    entry = importlib.import_module(f"repro.experiments.{spec.experiment}").run
    kwargs = spec.call_kwargs(seed)
    if store is not None:
        from repro.sched import Sweep
    calls = []
    reference = None
    served = mismatches = 0
    for index in range(1 + spec.warm_calls):
        sweep = Sweep(spec.experiment, store) if store is not None else None
        span = tracer.begin("call") if tracer is not None else None
        start = perf_counter()
        result = entry(**kwargs, sweep=sweep)
        seconds = perf_counter() - start
        if span is not None:
            tracer.end(span)
        computed = sweep.report.computed if sweep is not None else spec.cells
        calls.append([seconds, computed])
        cells = {f"{w}/{c}": r for (w, c), r in result.grid.results.items()}
        if index == 0:
            reference = cells
        else:
            served += len(cells)
            mismatches += sum(cells.get(k) != v for k, v in reference.items())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "calls": calls,
        "rss_mb": rss_mb,
        "digests": {cell: cell_digest(r) for cell, r in reference.items()},
        "served": served,
        "warm_mismatches": mismatches,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--store", help="fresh store directory (warm-call workloads)")
    parser.add_argument("--t0", type=float, required=True, help="parent's spawn stamp")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = SCALES[args.scale][args.workload]

    importlib.import_module(f"repro.experiments.{spec.experiment}")
    store = None
    if spec.warm_calls:
        import repro.sched  # noqa: F401  (imported as part of set-up)
        from repro.store import ResultStore

        store = ResultStore(args.store)
    record = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(RESULT_PREFIX + json.dumps(record), flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            record.update(run_pass(spec, args.seed, store))
        else:
            with tracer.installed():
                record.update(run_pass(spec, args.seed, store, tracer))
            record["spans"] = [span.to_list() for span in tracer.spans]
            record["missing"] = tracer.missing
    except Exception as exc:  # the pass is the unit of failure
        traceback.print_exc()
        record["error"] = f"{type(exc).__name__}: {exc}"
    print(RESULT_PREFIX + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

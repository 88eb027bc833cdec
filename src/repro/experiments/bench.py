"""Simulator throughput bench: refs/sec now vs the recorded baseline.

``python -m repro.experiments bench`` times the batched fast path on a
hit-dominated stream against the scalar loop on the same stream, plus
the cost of disabled observability hooks, and compares against the
committed baseline in ``benchmarks/BENCH_simulator.json``.  End-to-end
sweep wall time is the repo benchmark's job (``benchmarks/e2e``).

Two kinds of numbers come out:

* **refs/sec** -- absolute throughput; machine-dependent, reported for
  context and refreshed with ``REPRO_BENCH_UPDATE=1``.
* **ratios** (``batched_speedup``; per-metric speedup vs the baseline
  file) -- the batched/scalar ratio is machine-independent enough to
  gate on in CI (see ``benchmarks/test_simulator_throughput.py``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.experiments.common import format_table
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import parse_config
from repro.sim.system import build_system, populate_for_addresses
from repro.workloads.registry import create_workload

#: Committed baseline (relative to the repository root); absent when the
#: package is installed outside the repo, in which case no comparison.
BASELINE_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "BENCH_simulator.json"

#: Workload whose footprint backs the engine microbench systems.
BENCH_WORKLOAD = "graph500"

#: Hot pages tiled into the hit-dominated engine microbench stream.
HOT_PAGES = 48

#: References per engine-microbench measurement.  The batched path
#: clears tens of millions of refs/sec, so short streams time in
#: microseconds and jitter dominates; keep the stream long.
ENGINE_REFS = 200_000

#: Timed repetitions per engine measurement; best-of filters scheduler
#: noise (standard microbench practice).
ENGINE_REPEATS = 3


@dataclass
class BenchResult:
    """Measured throughput plus the baseline it is compared against."""

    #: metric name -> measured value (refs/sec, or a ratio).
    metrics: dict[str, float] = field(default_factory=dict)
    #: metric name -> committed baseline value (empty without a file).
    baseline: dict[str, float] = field(default_factory=dict)

    def speedup(self, name: str) -> float | None:
        """measured / baseline for one metric; None without a baseline."""
        base = self.baseline.get(name)
        if not base:
            return None
        return self.metrics[name] / base


def resolve_baseline_path(path: Path | str | None = None) -> Path:
    """Normalize a baseline path to an absolute location.

    ``None`` means the committed file; a relative path is anchored at
    the repository's ``benchmarks/`` directory, **never** the current
    working directory -- ``REPRO_BENCH_UPDATE=1`` from any cwd must
    refresh the committed baseline, not scatter copies around.
    """
    if path is None:
        return BASELINE_PATH
    path = Path(path)
    if not path.is_absolute():
        path = BASELINE_PATH.parent / path
    return path


def load_baseline(path: Path | None = None) -> dict[str, float]:
    """The committed baseline metrics ({} when no file exists)."""
    path = resolve_baseline_path(path)
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    return {str(k): float(v) for k, v in data.get("metrics", {}).items()}


def write_baseline(result: BenchResult, path: Path | None = None) -> Path:
    """Record ``result`` as the new committed baseline."""
    path = resolve_baseline_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "note": (
            "Simulator throughput baseline; refresh with "
            "REPRO_BENCH_UPDATE=1 pytest benchmarks/ --benchmark-only "
            "-k baseline (or repro.experiments.bench.write_baseline). "
            "CI gates on the *_speedup/*_ratio metrics only: absolute "
            "refs/sec depends on the machine."
        ),
        "metrics": {k: round(v, 4) for k, v in result.metrics.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _hit_stream(system, length: int) -> np.ndarray:
    """A hit-dominated address stream over ``HOT_PAGES`` resident pages."""
    base_va = system.base_va
    pages = np.arange(HOT_PAGES, dtype=np.int64)
    stream = np.tile(pages, length // HOT_PAGES + 1)[:length]
    return (stream << 12) + base_va


def _engine_throughputs() -> tuple[float, float]:
    """(scalar, batched) refs/sec on identical hit-dominated streams.

    Best of :data:`ENGINE_REPEATS` timed runs each; hits leave TLB
    contents untouched (only recency moves), so repeats see identical
    state and simply re-measure the same work.
    """
    workload = create_workload(BENCH_WORKLOAD)
    results = []
    for batched in (False, True):
        system = build_system(parse_config("4K+4K"), workload.spec)
        addresses = _hit_stream(system, ENGINE_REFS)
        populate_for_addresses(system, np.unique(addresses))
        system.mmu.access_batch(addresses[: HOT_PAGES * 2])  # warm
        rest = addresses[HOT_PAGES * 2 :]
        rest_list = rest.tolist()
        best = 0.0
        for _ in range(ENGINE_REPEATS):
            start = time.perf_counter()
            if batched:
                system.mmu.access_batch(rest)
            else:
                access = system.mmu.access
                for va in rest_list:
                    access(va)
            elapsed = time.perf_counter() - start
            rate = len(rest) / elapsed if elapsed > 0 else float("inf")
            best = max(best, rate)
        results.append(best)
    return results[0], results[1]


def _obs_disabled_ratio() -> float:
    """Throughput with a disabled metrics registry attached / detached.

    Measures the cost of the observability *hooks* themselves on the
    hit-dominated batched stream: an attached-but-disabled registry must
    stay within noise of no registry at all (the <2% contract asserted
    by ``benchmarks/test_simulator_throughput.py``).  Best-of timing on
    both sides, same stream, same system construction.
    """
    workload = create_workload(BENCH_WORKLOAD)
    rates = []
    for attach in (False, True):
        system = build_system(parse_config("4K+4K"), workload.spec)
        if attach:
            system.mmu.metrics = MetricsRegistry(enabled=False)
        addresses = _hit_stream(system, ENGINE_REFS)
        populate_for_addresses(system, np.unique(addresses))
        system.mmu.access_batch(addresses[: HOT_PAGES * 2])  # warm
        rest = addresses[HOT_PAGES * 2 :]
        best = 0.0
        for _ in range(ENGINE_REPEATS):
            start = time.perf_counter()
            system.mmu.access_batch(rest)
            elapsed = time.perf_counter() - start
            rate = len(rest) / elapsed if elapsed > 0 else float("inf")
            best = max(best, rate)
        rates.append(best)
    return rates[1] / rates[0] if rates[0] else 0.0


def run(progress: bool = False) -> BenchResult:
    """Measure all bench metrics and attach the committed baseline."""
    if progress:
        print(
            f"  engine microbench ({ENGINE_REFS} refs x {ENGINE_REPEATS}) ...",
            flush=True,
        )
    scalar_rps, batched_rps = _engine_throughputs()
    if progress:
        print("  observability hook overhead (disabled registry) ...", flush=True)
    obs_ratio = _obs_disabled_ratio()
    result = BenchResult()
    result.metrics = {
        "scalar_hit_refs_per_sec": scalar_rps,
        "batched_hit_refs_per_sec": batched_rps,
        "batched_speedup": batched_rps / scalar_rps if scalar_rps else 0.0,
        "obs_disabled_ratio": obs_ratio,
    }
    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        # Refresh the committed file at its resolved location -- never a
        # cwd-relative copy -- so `REPRO_BENCH_UPDATE=1 python -m
        # repro.experiments bench` works from any directory.
        path = write_baseline(result)
        if progress:
            print(f"  baseline refreshed at {path}", flush=True)
    result.baseline = load_baseline()
    artifact = write_artifact(result)
    if artifact is not None and progress:
        print(f"  bench artifact recorded at {artifact}", flush=True)
    return result


def write_artifact(
    result: BenchResult, directory: Path | str | None = None
) -> Path | None:
    """Record this run's numbers as a ``BENCH_throughput.json`` artifact.

    CI sets ``REPRO_BENCH_ARTIFACTS_DIR`` and uploads whatever lands
    there; locally the variable is unset and nothing is written.  Unlike
    the committed baseline, artifacts capture absolute refs/sec per run
    for trend tracking, so they are never read back or gated on.
    """
    directory = directory or os.environ.get("REPRO_BENCH_ARTIFACTS_DIR")
    if not directory:
        return None
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "BENCH_throughput.json"
    payload = {
        "kind": "repro.bench.throughput",
        "metrics": {k: round(v, 4) for k, v in result.metrics.items()},
        "baseline": {k: round(v, 4) for k, v in result.baseline.items()},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def format_bench(result: BenchResult) -> str:
    """Render measured metrics beside the committed baseline."""
    headers = ["metric", "measured", "baseline", "vs baseline"]
    rows = []
    for name, value in result.metrics.items():
        base = result.baseline.get(name)
        speedup = result.speedup(name)
        rows.append(
            [
                name,
                f"{value:,.0f}" if value > 100 else f"{value:.2f}",
                (f"{base:,.0f}" if base > 100 else f"{base:.2f}") if base else "-",
                f"{speedup:.2f}x" if speedup is not None else "-",
            ]
        )
    title = (
        f"Simulator throughput bench ({ENGINE_REFS} refs x "
        f"{ENGINE_REPEATS} repeats)"
    )
    return format_table(headers, rows, title=title)

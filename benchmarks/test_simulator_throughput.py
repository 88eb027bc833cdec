"""Simulator throughput benchmarks (the library's own performance).

Unlike the figure benches (which time one-shot regenerations), these
measure the hot paths downstream users care about: MMU accesses per
second in the cheap (TLB-hit) and expensive (2D-walk) regimes -- scalar
and batched -- and trace generation speed.  The baseline-regression
test at the bottom gates the committed ``BENCH_simulator.json``.
"""

import os

import numpy as np
import pytest

from repro.experiments import bench
from repro.sim.config import parse_config
from repro.sim.system import build_system, populate_for_addresses
from repro.workloads.registry import create_workload
from tests.conftest import TinyWorkload


@pytest.fixture(scope="module")
def hit_system():
    system = build_system(parse_config("4K+4K"), TinyWorkload().spec)
    base = system.base_va
    populate_for_addresses(system, [base])
    system.mmu.access(base)  # warm
    return system


@pytest.fixture(scope="module")
def miss_system():
    workload = TinyWorkload()
    system = build_system(parse_config("4K+4K"), workload.spec)
    trace = workload.trace(4000, seed=0)
    addresses = sorted({(int(p) << 12) + system.base_va for p in trace})
    populate_for_addresses(system, addresses)
    return system, addresses


def test_l1_hit_rate(benchmark, hit_system):
    va = hit_system.base_va
    access = hit_system.mmu.access

    def hot_loop():
        for _ in range(1000):
            access(va)

    benchmark(hot_loop)


def test_2d_walk_rate(benchmark, miss_system):
    system, addresses = miss_system
    access = system.mmu.access
    flush = system.mmu.flush_tlbs
    sample = addresses[:500]

    def walk_loop():
        flush()  # every access below misses everything
        for va in sample:
            access(va)

    benchmark(walk_loop)


def test_trace_generation_rate(benchmark):
    workload = create_workload("graph500")
    trace = benchmark(workload.trace, 50_000, 1)
    assert isinstance(trace, np.ndarray)
    assert len(trace) == 50_000


def test_batched_engine_rate(benchmark):
    """Batched fast path on a resident hot set (the engine's best case)."""
    system = build_system(parse_config("4K+4K"), TinyWorkload().spec)
    pages = np.arange(32, dtype=np.int64)
    addresses = (np.tile(pages, 2000) << 12) + system.base_va
    populate_for_addresses(system, np.unique(addresses).tolist())
    system.mmu.access_batch(addresses[:64])  # everything resident

    benchmark(system.mmu.access_batch, addresses)


@pytest.mark.skip(reason="non-benchmark assertion (un-skipped under --benchmark-only)")
def test_bench_baseline_regression():
    """Fail when throughput regresses >30% against the committed baseline.

    Gates the machine-independent ratio (``batched_speedup``) plus a
    within-run sanity floor; absolute refs/sec are machine-dependent and
    only reported.  ``REPRO_BENCH_UPDATE=1`` refreshes the baseline
    instead of asserting.
    """
    result = bench.run()
    if os.environ.get("REPRO_BENCH_UPDATE") == "1":
        path = bench.write_baseline(result)
        pytest.skip(f"baseline refreshed at {path}")
    print()
    print(bench.format_bench(result))
    baseline = result.baseline
    assert baseline, f"missing committed baseline at {bench.BASELINE_PATH}"
    measured = result.metrics["batched_speedup"]
    committed = baseline["batched_speedup"]
    assert measured >= 0.70 * committed, (
        f"batched/scalar speedup regressed >30%: measured {measured:.1f}x "
        f"vs committed {committed:.1f}x"
    )
    # The batched engine must never lose to the scalar loop on its own
    # best-case stream, whatever the machine.
    assert measured >= 1.0
    # The observability hooks' no-op-when-disabled contract: attaching a
    # disabled MetricsRegistry must cost <2% on the hit-dominated
    # stream.  Within-run ratio, so no baseline entry is needed.
    obs_ratio = result.metrics["obs_disabled_ratio"]
    assert obs_ratio >= 0.98, (
        f"disabled-metrics hooks cost {100 * (1 - obs_ratio):.1f}% "
        f"(>2%) on the hit-dominated stream"
    )

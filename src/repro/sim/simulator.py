"""Trace-driven simulation runs and their results.

A run drives a workload's page-reference trace through a built system's
MMU: a warm-up prefix populates page tables, TLBs and walk caches (the
paper measures steady state -- its workloads run for minutes before and
during measurement), counters are reset, and the measured portion
produces a :class:`SimulationResult` combining raw counters with the
paper's derived metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mmu import MMUCounters
from repro.errors import ConfigError
from repro.faults.degradation import DegradationLog
from repro.faults.injector import FaultInjector
from repro.faults.oracle import OracleReport, TranslationOracle
from repro.model.counters import MeasuredRun, measured_run
from repro.model.overhead import OverheadResult, overhead_from_trace
from repro.obs.tracing import RunObservability, RunObserver
from repro.sim import trace_cache
from repro.sim.config import SystemConfig, parse_config, validate_run_parameters
from repro.sim.system import SimulatedSystem, build_system, populate_for_addresses
from repro.workloads.base import Workload

#: Fraction of the trace used to warm TLBs and walk caches (page tables
#: are pre-populated separately, so warm-up only needs to fill caches).
DEFAULT_WARMUP_FRACTION = 0.15


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured from one (workload, config) run."""

    config: SystemConfig
    workload_name: str
    run: MeasuredRun
    overhead: OverheadResult
    counters: MMUCounters
    l2_tlb_misses: int
    #: How the system absorbed injected faults; None without injection.
    degradation_log: DegradationLog | None = None
    #: Consistency-check tally; None when no oracle was attached.
    oracle_report: OracleReport | None = None
    #: Observability record (metrics snapshot, interval samples, span
    #: timing); None unless a :class:`RunObserver` was attached.  Plain
    #: picklable data, so parallel sweep workers ship it back intact.
    obs: RunObservability | None = None

    @property
    def overhead_percent(self) -> float:
        """The Figure 11/12 bar height for this run."""
        return self.overhead.overhead_percent

    @property
    def profile(self) -> dict | None:
        """Cycle-attribution snapshot of a profiled run, if any.

        Populated when the attached observer was built from
        ``ObsOptions(profile=True)`` (the ``--profile`` flag); see
        :mod:`repro.obs.profiler`.  Attaching the profiler leaves every
        simulation counter bit-identical -- it only mirrors them.
        """
        return self.obs.profile if self.obs is not None else None

    def describe(self) -> str:
        """One-paragraph human-readable summary of the run."""
        run = self.run
        lines = [
            f"{self.workload_name or 'workload'} under {self.config.label}: "
            f"{self.overhead_percent:.2f}% translation overhead",
            f"  {run.trace_length} references, {run.l1_misses} L1 TLB misses "
            f"({run.misses_per_kilo_ref:.1f}/kref), {run.walks} walks",
            f"  {run.cycles_per_walk:.1f} cycles and {run.refs_per_walk:.1f} "
            f"page-table references per walk",
        ]
        fractions = []
        for label, value in (
            ("both", run.fraction_both),
            ("VMM-only", run.fraction_vmm_only),
            ("guest-only", run.fraction_guest_only),
            ("neither", run.fraction_neither),
        ):
            if value > 0:
                fractions.append(f"{label} {100 * value:.1f}%")
        if fractions:
            lines.append("  segment classification: " + ", ".join(fractions))
        return "\n".join(lines)


def run_trace(
    system: SimulatedSystem,
    trace: np.ndarray,
    ideal_cycles_per_ref: float,
    workload_name: str = "",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    prepopulate: bool = True,
    refs_per_entry: float = 1.0,
    fault_injector: FaultInjector | None = None,
    oracle: TranslationOracle | None = None,
    unique_pages: np.ndarray | None = None,
    observer: RunObserver | None = None,
) -> SimulationResult:
    """Drive ``trace`` through ``system`` and measure the steady state.

    ``trace`` holds page offsets relative to the workload arena; they
    are rebased onto the process's primary region.  With ``prepopulate``
    (the default) the touched pages are faulted in up front, so measured
    misses reflect steady-state walks, not demand paging.
    ``unique_pages`` optionally supplies the trace's pre-computed sorted
    unique page indices (the trace cache shares one array across every
    config of a sweep), saving the per-run ``np.unique``.

    Every run is one sequence: populate, warm up, reset counters,
    attach the observer, translate the measured portion in chunks of
    ``observer.interval`` references, sampling cumulative counters
    after each (one unsampled chunk without an interval).  Only the
    chunk body
    differs.  Without ``fault_injector``/``oracle`` it is the batched
    engine (:mod:`repro.sim.engine`), whose counters and TLB state come
    out bit-identical to the scalar loop, only faster; with either
    attached it is the scalar per-reference loop, because injected
    faults and shadow checks need reference-granular interleaving.
    Warm-up always runs batched: it precedes every injection and check.

    An ``observer`` attaches its metrics registry to the system after
    warm-up (so histograms cover only the measured portion); the result
    carries its frozen record in ``.obs``.  Chunking is invisible to the
    counters because the engine keeps no state between runs.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError(
            f"warmup fraction must be in [0, 1), got {warmup_fraction}"
        )
    base_va = system.base_va
    rebased = (trace.astype(np.int64) << 12) + base_va
    if prepopulate:
        if unique_pages is not None and base_va & 0xFFF == 0:
            unique_addresses = (unique_pages.astype(np.int64) << 12) + base_va
        else:
            unique_addresses = np.unique(rebased & ~np.int64(0xFFF))
        populate_for_addresses(system, unique_addresses)
    mmu = system.mmu

    split = int(len(rebased) * warmup_fraction)
    mmu.access_batch(rebased[:split])
    mmu.counters.reset()
    system.hierarchy.reset_stats()
    if observer is not None:
        observer.attach(system)
        if fault_injector is not None:
            fault_injector.metrics = observer.metrics
        observer.begin()
    measured = rebased[split:]
    if fault_injector is None and oracle is None:
        def translate(start: int, stop: int) -> None:
            mmu.access_batch(measured[start:stop])
    else:
        def translate(start: int, stop: int) -> None:
            access = mmu.access
            for index, va in enumerate(measured[start:stop].tolist(), start):
                if fault_injector is not None:
                    fault_injector.deliver_due(index, system)
                frame = access(va)
                if oracle is not None:
                    oracle.observe(index, va, frame)
    measured_entries = len(measured)
    interval = observer.interval if observer is not None else None
    chunk = interval if interval is not None else max(measured_entries, 1)
    for start in range(0, measured_entries, chunk):
        stop = min(start + chunk, measured_entries)
        translate(start, stop)
        if interval is not None:
            observer.sample(stop, system)

    # Each trace entry is one page visit standing for refs_per_entry
    # consecutive references; only the first of a run can change TLB
    # state, so reference counts scale without re-simulating the rest.
    measured_refs = int(measured_entries * refs_per_entry)
    counters = mmu.counters
    run = measured_run(
        system.config.label,
        workload_name,
        measured_refs,
        counters,
        nested_insertions=system.hierarchy.nested_insertions,
    )
    overhead = overhead_from_trace(
        measured_refs, ideal_cycles_per_ref, counters.translation_cycles
    )
    degradation_log = None
    if fault_injector is not None and system.hypervisor is not None:
        degradation_log = system.hypervisor.degradation_log
    obs = None
    if observer is not None:
        obs = observer.finalize(
            system,
            workload_name=workload_name,
            overhead_percent=overhead.overhead_percent,
            measured_refs=measured_refs,
        )
    return SimulationResult(
        config=system.config,
        workload_name=workload_name,
        run=run,
        overhead=overhead,
        counters=counters,
        l2_tlb_misses=counters.l2_misses,
        degradation_log=degradation_log,
        oracle_report=oracle.report if oracle is not None else None,
        obs=obs,
    )


def simulate(
    config_label: str,
    workload: Workload,
    trace_length: int | None = None,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    fault_injector: FaultInjector | None = None,
    oracle_sample_every: int | None = None,
    use_trace_cache: bool = True,
    observer: RunObserver | None = None,
    **build_kwargs,
) -> SimulationResult:
    """One-call convenience: build the system, generate a trace, run it.

    ``oracle_sample_every`` attaches a :class:`TranslationOracle`
    checking one in that many measured references (the report lands on
    the result).  Traces are memoized per (workload, length, seed)
    through :mod:`repro.sim.trace_cache` so sweeping many configs over
    one cell generates the trace -- and its unique-page array -- once;
    pass ``use_trace_cache=False`` for workloads whose ``trace`` is not
    a pure function of (length, seed).
    """
    config = parse_config(config_label)
    validate_run_parameters(
        workload.spec.footprint_bytes,
        trace_length=trace_length,
        warmup_fraction=warmup_fraction,
    )
    system = build_system(config, workload.spec, **build_kwargs)
    if use_trace_cache:
        cached = trace_cache.get_trace(
            workload, trace_length, seed, isa=config.isa_name()
        )
        trace, unique_pages = cached.pages, cached.unique_pages
    else:
        trace = workload.trace(trace_length, seed=seed)
        unique_pages = None
    oracle = None
    if oracle_sample_every is not None:
        oracle = TranslationOracle(system, sample_every=oracle_sample_every)
    if observer is not None:
        observer.set_run_info(seed, trace_length)
    return run_trace(
        system,
        trace,
        workload.spec.ideal_cycles_per_ref,
        workload_name=workload.spec.name,
        warmup_fraction=warmup_fraction,
        refs_per_entry=workload.spec.refs_per_entry,
        fault_injector=fault_injector,
        oracle=oracle,
        unique_pages=unique_pages,
        observer=observer,
    )

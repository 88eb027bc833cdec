"""Resilience sweep: runtime fault injection under Dual Direct.

Figure 13 measures *static* resilience: bad pages that exist before the
system boots are escaped through the filter at segment-creation time.
This experiment measures the *dynamic* story the paper's Section V
machinery implies but never evaluates: DRAM frames go bad mid-run,
the escape filter runs out of capacity, balloons fail, memory
fragments -- and the hypervisor absorbs each event through the
graceful-degradation ladder (escape -> shrink -> fall back to nested
paging) while a :class:`~repro.faults.oracle.TranslationOracle`
shadow-checks that every sampled translation still lands on the right
host frame.

Each point sweeps the number of extra mid-run hard faults on top of a
fixed chaos mix (a transient-allocation burst, a failed balloon
inflation, filter exhaustion, edge and mid-segment hard faults, a
fragmentation shock) and reports execution time normalized to a
fault-free run, the degradation actions taken, and the oracle verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import format_table
from repro.faults.degradation import DegradationAction
from repro.faults.injector import FaultInjector
from repro.faults.oracle import TranslationOracle
from repro.sim.config import parse_config
from repro.sim.simulator import DEFAULT_WARMUP_FRACTION, SimulationResult, run_trace
from repro.sim.system import build_system
from repro.workloads.registry import create_workload

DEFAULT_WORKLOADS = ("graph500", "gups")
DEFAULT_EXTRA_FAULTS = (0, 2, 8)
DEFAULT_CONFIG = "DD"


@dataclass
class ResiliencePoint:
    """One (workload, #extra hard faults) point of the sweep."""

    workload: str
    extra_hard_faults: int
    #: Execution time normalized to the same workload with no faults.
    normalized_time: float
    #: DegradationAction.value -> count of events of that kind.
    actions: dict[str, int] = field(default_factory=dict)
    mode_transitions: int = 0
    degradation_cycles: float = 0.0
    allocation_backoff_cycles: int = 0
    oracle_checks: int = 0
    oracle_mismatches: int = 0

    @property
    def consistent(self) -> bool:
        """True when the oracle saw no translation divergence."""
        return self.oracle_mismatches == 0


@dataclass
class ResilienceResult:
    """All points of the sweep."""

    config: str
    trace_length: int
    points: list[ResiliencePoint]
    #: Per-run observability records (empty unless run with ``obs``).
    obs_records: tuple = ()

    def point(self, workload: str, extra: int) -> ResiliencePoint:
        """Lookup one point."""
        for p in self.points:
            if p.workload == workload and p.extra_hard_faults == extra:
                return p
        raise KeyError((workload, extra))

    @property
    def all_consistent(self) -> bool:
        """True when no point recorded an oracle mismatch."""
        return all(p.consistent for p in self.points)


def _run_once(
    workload_name: str,
    config_label: str,
    trace_length: int,
    injector: FaultInjector | None,
    sample_every: int,
    seed: int,
    obs=None,
) -> tuple[SimulationResult, int]:
    """One run; returns the result and the allocator's backoff cycles."""
    workload = create_workload(workload_name)
    system = build_system(parse_config(config_label), workload.spec)
    trace = workload.trace(trace_length, seed=seed)
    oracle = None
    if injector is not None:
        oracle = TranslationOracle(system, sample_every=sample_every)
    observer = None
    if obs is not None:
        observer = obs.make_observer()
        observer.set_run_info(seed, trace_length)
    result = run_trace(
        system,
        trace,
        workload.spec.ideal_cycles_per_ref,
        workload_name=workload_name,
        refs_per_entry=workload.spec.refs_per_entry,
        fault_injector=injector,
        oracle=oracle,
        observer=observer,
    )
    backoff = 0
    if system.hypervisor is not None:
        backoff = system.hypervisor.allocator.retry_stats.backoff_cycles
    return result, backoff


@dataclass(frozen=True)
class _ResilienceTask:
    """One resilience run, fully described by picklable values.

    ``extra is None`` is the workload's fault-free baseline (always
    unobserved: only faulted runs feed ``obs_records``); otherwise the
    chaos plan is rebuilt deterministically from the seed and fault
    count.
    """

    workload: str
    config: str
    trace_length: int
    sample_every: int
    seed: int
    extra: int | None
    obs: object = None


def _resilience_cell(task: _ResilienceTask):
    """Run one resilience cell (module-level: scheduler-callable)."""
    injector = None
    if task.extra is not None:
        measured = task.trace_length - int(
            task.trace_length * DEFAULT_WARMUP_FRACTION
        )
        injector = FaultInjector.chaos_plan(
            measured,
            seed=task.seed * 1000 + task.extra,
            extra_hard_faults=task.extra,
        )
    return _run_once(
        task.workload,
        task.config,
        task.trace_length,
        injector,
        task.sample_every,
        task.seed,
        obs=task.obs,
    )


def _resilience_ingredients(task: _ResilienceTask) -> dict:
    """Store-key ingredients for one cell (see repro.store.keys)."""
    from repro.store.keys import (
        config_params,
        obs_params,
        trace_key_params,
        workload_params,
    )

    workload = create_workload(task.workload)
    return {
        "kind": "resilience-cell",
        "workload": task.workload,
        "workload_params": workload_params(workload),
        "config": config_params(task.config),
        "trace_length": task.trace_length,
        "sample_every": task.sample_every,
        "seed": task.seed,
        "extra_hard_faults": task.extra,
        "obs": obs_params(task.obs),
        "trace_key": trace_key_params(workload, task.trace_length, task.seed),
    }


def _resilience_deps(task: _ResilienceTask) -> tuple[_ResilienceTask, ...]:
    """Faulted runs normalize against the workload's fault-free cell."""
    if task.extra is None:
        return ()
    return (
        _ResilienceTask(
            task.workload,
            task.config,
            task.trace_length,
            task.sample_every,
            task.seed,
            extra=None,
        ),
    )


def run(
    trace_length: int = 40_000,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    extra_fault_counts: tuple[int, ...] = DEFAULT_EXTRA_FAULTS,
    config_label: str = DEFAULT_CONFIG,
    sample_every: int = 64,
    seed: int = 0,
    progress: bool = False,
    obs=None,
    sweep=None,
) -> ResilienceResult:
    """Sweep overhead and consistency against the injected fault count.

    The runs dispatch through ``sweep`` (:class:`repro.sched.Sweep`; a
    storeless one when None): each workload's fault-free baseline is a
    dependency wave ahead of its faulted runs, and with a store every
    completed run is persisted immediately.
    """
    from repro.sched import Sweep

    tasks = []
    for name in workloads:
        tasks.append(
            _ResilienceTask(
                name, config_label, trace_length, sample_every, seed,
                extra=None,
            )
        )
        for extra in extra_fault_counts:
            tasks.append(
                _ResilienceTask(
                    name, config_label, trace_length, sample_every, seed,
                    extra=extra, obs=obs,
                )
            )
    if sweep is None:
        sweep = Sweep("resilience")
    outputs = sweep.run_tasks(
        tasks,
        _resilience_cell,
        _resilience_ingredients,
        deps_for=_resilience_deps,
        label_for=lambda t: (
            f"{t.workload} baseline"
            if t.extra is None
            else f"{t.workload} +{t.extra} hard faults"
        ),
        progress=progress,
    )
    by_task = dict(zip(tasks, outputs))

    points = []
    obs_records = []
    for name in workloads:
        baseline, _ = by_task[
            _ResilienceTask(
                name, config_label, trace_length, sample_every, seed,
                extra=None,
            )
        ]
        baseline_cycles = baseline.overhead.execution_cycles
        for extra in extra_fault_counts:
            result, backoff = by_task[
                _ResilienceTask(
                    name, config_label, trace_length, sample_every, seed,
                    extra=extra, obs=obs,
                )
            ]
            if result.obs is not None:
                obs_records.append(result.obs)
            log = result.degradation_log
            report = result.oracle_report
            assert log is not None and report is not None
            actions = {
                action.value: log.count(action)
                for action in DegradationAction
                if log.count(action)
            }
            points.append(
                ResiliencePoint(
                    workload=name,
                    extra_hard_faults=extra,
                    normalized_time=(
                        result.overhead.execution_cycles / baseline_cycles
                    ),
                    actions=actions,
                    mode_transitions=len(log.mode_transitions),
                    degradation_cycles=log.total_cycle_cost,
                    allocation_backoff_cycles=backoff,
                    oracle_checks=report.checks,
                    oracle_mismatches=report.mismatches,
                )
            )
    return ResilienceResult(
        config=config_label,
        trace_length=trace_length,
        points=points,
        obs_records=tuple(obs_records),
    )


def format_resilience(result: ResilienceResult) -> str:
    """Render the sweep as a table plus a one-line oracle verdict."""
    headers = [
        "workload",
        "+faults",
        "norm. time",
        "degradations",
        "mode changes",
        "degr. cycles",
        "oracle",
    ]
    rows = []
    for p in result.points:
        actions = (
            ", ".join(f"{k}:{v}" for k, v in sorted(p.actions.items()))
            or "none"
        )
        verdict = (
            f"{p.oracle_checks} checks OK"
            if p.consistent
            else f"{p.oracle_mismatches} MISMATCHES"
        )
        rows.append(
            [
                p.workload,
                p.extra_hard_faults,
                f"{p.normalized_time:.4f}",
                actions,
                p.mode_transitions,
                f"{p.degradation_cycles:.0f}",
                verdict,
            ]
        )
    table = format_table(
        headers,
        rows,
        title=(
            f"Resilience under runtime fault injection "
            f"({result.config}, {result.trace_length} refs)"
        ),
    )
    verdict = (
        "translation consistency: every sampled reference matched the "
        "shadow walk"
        if result.all_consistent
        else "translation consistency: MISMATCHES DETECTED (see above)"
    )
    return table + "\n" + verdict

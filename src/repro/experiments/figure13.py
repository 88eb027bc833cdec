"""Figure 13: escape-filter resilience to bad pages.

Section IX.C: inject 1..16 hard-faulted host pages into the region the
VMM segment occupies, escape them through the 256-bit/4-hash filter,
and measure normalized execution time in Dual Direct mode across many
random fault sets (the paper uses 30), with 95% confidence intervals.
Escaped pages -- and the filter's false positives -- fall back to
nested paging, so the overhead should stay almost zero (<0.06%, GUPS
0.5%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.address import BASE_PAGE_SIZE
from repro.experiments.common import format_table, isa_configs
from repro.mem.badpages import BadPageList
from repro.sim.config import parse_config
from repro.sim.simulator import run_trace
from repro.sim.system import build_system
from repro.workloads.registry import create_workload

DEFAULT_WORKLOADS = ("graph500", "memcached", "gups")
DEFAULT_BAD_COUNTS = (1, 2, 4, 8, 16)


@dataclass
class EscapeFilterPoint:
    """One (workload, #bad pages) point of Figure 13."""

    workload: str
    num_bad_pages: int
    #: Normalized execution time per trial (1.0 = no bad pages).
    samples: list[float]

    @property
    def mean(self) -> float:
        """Mean normalized execution time."""
        return sum(self.samples) / len(self.samples)

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self.mean
        var = sum((s - mean) ** 2 for s in self.samples) / (n - 1)
        return 1.96 * math.sqrt(var / n)


@dataclass
class Figure13Result:
    """All points of the figure."""

    points: list[EscapeFilterPoint]

    def point(self, workload: str, num_bad: int) -> EscapeFilterPoint:
        """Lookup one point."""
        for p in self.points:
            if p.workload == workload and p.num_bad_pages == num_bad:
                return p
        raise KeyError((workload, num_bad))


def _dd_label(isa: str) -> str:
    """The Dual Direct bar label under one ISA ('DD', 'sv48/DD', ...)."""
    return isa_configs(("DD",), isa)[0]


def _segment_host_frames(workload_name: str, isa: str = "x86_64") -> range:
    """Host frame range the VMM segment occupies (deterministic)."""
    workload = create_workload(workload_name)
    system = build_system(parse_config(_dd_label(isa)), workload.spec)
    segment = system.vm.vmm_segment  # type: ignore[union-attr]
    start = (segment.base + segment.offset) // BASE_PAGE_SIZE
    return range(start, start + segment.size // BASE_PAGE_SIZE)


def _dd_execution_cycles(
    workload_name: str,
    trace_length: int,
    bad_pages: BadPageList | None,
    seed: int,
    isa: str = "x86_64",
) -> float:
    workload = create_workload(workload_name)
    system = build_system(
        parse_config(_dd_label(isa)), workload.spec, bad_pages=bad_pages
    )
    trace = workload.trace(trace_length, seed=seed)
    result = run_trace(
        system,
        trace,
        workload.spec.ideal_cycles_per_ref,
        workload_name=workload_name,
        refs_per_entry=workload.spec.refs_per_entry,
    )
    return result.overhead.execution_cycles


@dataclass(frozen=True)
class _TrialTask:
    """One Dual Direct run: picklable description of a figure-13 trial.

    ``num_bad == 0`` is the workload's no-fault baseline; otherwise the
    bad-page set is regenerated in the worker from the deterministic
    seed, so parallel and serial runs sample identical fault sets.
    """

    workload: str
    trace_length: int
    num_bad: int
    trial: int
    isa: str = "x86_64"


def _trial_cycles(task: _TrialTask) -> float:
    """Execution cycles for one trial (module-level: pool-callable)."""
    bad = None
    if task.num_bad:
        frames = _segment_host_frames(task.workload, task.isa)
        bad = BadPageList.random(
            task.num_bad, frames, seed=task.num_bad * 1000 + task.trial
        )
    return _dd_execution_cycles(
        task.workload, task.trace_length, bad, seed=0, isa=task.isa
    )


def _trial_ingredients(task: _TrialTask) -> dict:
    """Store-key ingredients for one trial cell (see repro.store.keys)."""
    from repro.store.keys import (
        config_params,
        trace_key_params,
        workload_params,
    )

    workload = create_workload(task.workload)
    return {
        "kind": "figure13-trial",
        "workload": task.workload,
        "workload_params": workload_params(workload),
        "config": config_params(_dd_label(task.isa)),
        "trace_length": task.trace_length,
        "num_bad": task.num_bad,
        "trial": task.trial,
        "bad_seed": task.num_bad * 1000 + task.trial if task.num_bad else None,
        "seed": 0,
        "trace_key": trace_key_params(workload, task.trace_length, 0, task.isa),
    }


def _trial_deps(task: _TrialTask) -> tuple[_TrialTask, ...]:
    """A faulted trial normalizes against its workload's baseline cell."""
    if task.num_bad == 0:
        return ()
    return (
        _TrialTask(
            task.workload, task.trace_length, num_bad=0, trial=0, isa=task.isa
        ),
    )


def run(
    trace_length: int = 40_000,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    bad_counts: tuple[int, ...] = DEFAULT_BAD_COUNTS,
    trials: int = 10,
    progress: bool = False,
    jobs: int = 1,
    sweep=None,
    isa: str = "x86_64",
) -> Figure13Result:
    """Measure the figure; ``trials=30`` matches the paper exactly.

    The runs dispatch through ``sweep`` (:class:`repro.sched.Sweep`; a
    storeless one when None): each workload's fault-free baseline is a
    dependency wave ahead of its trials, and with ``jobs > 1`` each
    wave fans out over a worker pool.  Results are assembled in task
    order and match a serial run exactly.
    """
    from repro.isa.geometry import get_geometry
    from repro.sched import Sweep

    isa = get_geometry(isa).name
    tasks = []
    for name in workloads:
        tasks.append(_TrialTask(name, trace_length, num_bad=0, trial=0, isa=isa))
        for num_bad in bad_counts:
            if progress:
                print(f"  {name}: {num_bad} bad pages x {trials} trials", flush=True)
            for trial in range(trials):
                tasks.append(_TrialTask(name, trace_length, num_bad, trial, isa=isa))
    if sweep is None:
        sweep = Sweep("figure13")
    samples = sweep.run_tasks(
        tasks,
        _trial_cycles,
        _trial_ingredients,
        deps_for=_trial_deps,
        label_for=lambda t: f"{t.workload} +{t.num_bad} bad #{t.trial}",
        jobs=jobs,
        progress=progress,
    )
    cycles = dict(zip(tasks, samples))

    points = []
    for name in workloads:
        baseline = cycles[
            _TrialTask(name, trace_length, num_bad=0, trial=0, isa=isa)
        ]
        for num_bad in bad_counts:
            samples = [
                cycles[_TrialTask(name, trace_length, num_bad, trial, isa=isa)]
                / baseline
                for trial in range(trials)
            ]
            points.append(
                EscapeFilterPoint(
                    workload=name, num_bad_pages=num_bad, samples=samples
                )
            )
    return Figure13Result(points=points)


def format_figure(result: Figure13Result) -> str:
    """Render normalized execution time (mean +/- 95% CI)."""
    headers = ["workload", "#bad pages", "normalized time", "95% CI"]
    rows = [
        [
            p.workload,
            p.num_bad_pages,
            f"{p.mean:.5f}",
            f"+/-{p.ci95:.5f}",
        ]
        for p in result.points
    ]
    return format_table(
        headers,
        rows,
        title="Figure 13: normalized execution time with bad pages (Dual Direct)",
    )

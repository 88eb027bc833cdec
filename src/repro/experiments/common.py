"""Shared experiment infrastructure: grids of runs and text tables.

Every experiment module exposes ``run(...) -> <result dataclass>`` plus
a ``format_...`` function that renders the same rows/series the paper
reports.  This module holds the pieces they share: running a
(workload x config) grid and laying out aligned text tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.parallel import CellTask
from repro.obs.tracing import ObsOptions, RunObservability
from repro.sim.simulator import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.sched import Sweep

#: Default measured trace length for experiments (page visits).  Long
#: enough for steady-state TLB statistics at every page size, short
#: enough to keep a full figure under a few minutes.
DEFAULT_TRACE_LENGTH = 80_000


def isa_configs(configs: Iterable[str], isa: str) -> tuple[str, ...]:
    """Prefix every bar label with an ISA, normalizing the default away.

    ``isa_configs(FIGURE11_CONFIGS, "sv48")`` yields ``sv48/4K``,
    ``sv48/DD``, ...; the default x86-64 geometry returns the labels
    untouched (bar names, reports and store keys stay exactly as before
    the ISA axis existed).  Unknown ISA names raise
    :class:`repro.errors.ConfigError` before any cell runs.
    """
    from repro.isa.geometry import DEFAULT_ISA, get_geometry

    geometry = get_geometry(isa)
    if geometry.name == DEFAULT_ISA:
        return tuple(configs)
    return tuple(f"{geometry.name}/{config}" for config in configs)


@dataclass
class RunGrid:
    """Results of a (workload x configuration) sweep."""

    workloads: tuple[str, ...]
    configs: tuple[str, ...]
    results: dict[tuple[str, str], SimulationResult] = field(default_factory=dict)

    def get(self, workload: str, config: str) -> SimulationResult:
        """The run for one cell; KeyError if the sweep skipped it."""
        return self.results[(workload, config)]

    def overhead_percent(self, workload: str, config: str) -> float:
        """Bar height for one cell."""
        return self.get(workload, config).overhead_percent

    def observability(self) -> list[RunObservability]:
        """Per-cell observability records, in grid iteration order.

        Empty unless the sweep ran with an :class:`ObsOptions` attached.
        """
        return [r.obs for r in self.results.values() if r.obs is not None]


def run_grid(
    workloads: Iterable[str],
    configs: Iterable[str],
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    progress: bool = False,
    jobs: int = 1,
    obs: ObsOptions | None = None,
    sweep: Sweep | None = None,
) -> RunGrid:
    """Simulate every (workload, config) pair.

    The cells dispatch through ``sweep`` (:class:`repro.sched.Sweep`;
    a storeless one when None): store hits skip simulation, misses are
    persisted, and ``jobs > 1`` fans them out over that many worker
    processes.  The assembled grid is identical either way because
    every cell is independently seeded and results come back in task
    order.  ``obs`` attaches a fresh observer to every cell
    (:meth:`RunGrid.observability` collects the records).
    """
    # Imported here, not at module top: the scheduler pulls in the
    # store, which importing an experiment module should not pay for.
    from repro.sched import Sweep

    workloads = tuple(workloads)
    configs = tuple(configs)
    tasks = [
        CellTask(
            workload=name,
            config=config,
            trace_length=trace_length,
            seed=seed,
            obs=obs,
        )
        for name in workloads
        for config in configs
    ]
    if sweep is None:
        sweep = Sweep("grid")
    results = sweep.run_cells(tasks, jobs=jobs, progress=progress)
    grid = RunGrid(workloads=workloads, configs=configs)
    for task, result in zip(tasks, results):
        grid.results[(task.workload, task.config)] = result
    return grid


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text aligned table (the experiments' printed output)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)

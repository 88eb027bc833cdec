"""Grid cells: the (workload, configuration) unit of a figure sweep.

A figure sweep is dozens of independent (workload, configuration) cells;
each cell builds its own system and trace, shares nothing mutable with
the others, and produces one picklable :class:`SimulationResult`.  A
cell is described by the frozen, picklable :class:`CellTask` and run by
the module-level :func:`run_cell`, so :class:`repro.sched.Sweep` can
execute it inline, in a worker process of any start method, or on a
fabric worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracing import ObsOptions
from repro.sim.simulator import SimulationResult, simulate
from repro.workloads.registry import create_workload


@dataclass(frozen=True)
class CellTask:
    """One (workload, config) simulation, fully described by values.

    Every field is a plain picklable value -- the worker reconstructs
    the workload and system from them, so the parent never ships live
    simulator state across the process boundary.
    """

    workload: str
    config: str
    trace_length: int | None
    seed: int
    #: Observability request; None keeps the cell unobserved (the frozen
    #: options are picklable, so workers build their own observers).
    obs: ObsOptions | None = None


def run_cell(task: CellTask) -> SimulationResult:
    """Execute one grid cell (runs in a worker process or inline)."""
    workload = create_workload(task.workload)
    observer = task.obs.make_observer() if task.obs is not None else None
    return simulate(
        task.config,
        workload,
        trace_length=task.trace_length,
        seed=task.seed,
        observer=observer,
    )

"""repro.sched: the one way every experiment sweep dispatches its cells.

Decomposes every experiment sweep into a DAG of content-addressed cells
(:mod:`repro.sched.cells`) and runs it through :class:`Sweep`, which
consults its store before dispatching anything, runs misses inline,
across a worker pool or through the fabric, and persists + journals
each completion the moment it lands -- so interrupted sweeps resume
with ``--resume`` from the last durable cell, and warm sweeps reproduce
cold sweeps byte-for-byte.  Runs without a store use
:class:`NullStore`, which keeps nothing, on the same path.
"""

from repro.sched.cells import Cell, toposort_waves
from repro.sched.scheduler import NullStore, Sweep, SweepReport, check_jobs

__all__ = [
    "Cell",
    "NullStore",
    "Sweep",
    "SweepReport",
    "check_jobs",
    "toposort_waves",
]

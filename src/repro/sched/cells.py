"""Cell graphs: the unit of incremental sweep scheduling.

Every experiment decomposes into **cells** -- the smallest independently
recomputable pieces of work (one (workload, config, seed) simulation,
one figure-13 trial, one resilience run).  A :class:`Cell` carries:

* ``key`` -- the content digest addressing its store entry
  (:func:`repro.store.keys.cell_key`);
* ``ingredients`` -- the key's experiment-level payload, persisted with
  the entry so stores are self-describing;
* ``task`` -- the picklable descriptor the executor consumes;
* ``execute`` -- a module-level callable ``task -> result`` (must be
  importable by worker processes);
* ``deps`` -- keys of cells that must complete first (e.g. a trial's
  fault-free baseline), forming a DAG.

:func:`toposort_waves` layers a cell list into dependency waves;
:class:`repro.sched.Sweep` dispatches each wave and persists results as
they land.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SchedulerError


@dataclass(frozen=True)
class Cell:
    """One independently recomputable, store-addressable unit of work."""

    key: str
    ingredients: dict
    task: Any
    execute: Callable[[Any], Any] = field(compare=False)
    deps: tuple[str, ...] = ()
    #: Progress label, e.g. ``"graph500/4K+2M"``.
    label: str = ""


def toposort_waves(cells: Sequence[Cell]) -> list[list[Cell]]:
    """Layer cells into dependency waves (Kahn's algorithm).

    Wave ``i`` contains every cell whose dependencies all live in waves
    ``< i``; cells within one wave are independent and dispatch in input
    order, so serial and parallel execution assemble identical sweeps.
    Raises :class:`SchedulerError` on unknown dependencies or cycles.
    Duplicate keys are allowed only for identical tasks (content
    addressing: same key == same computation), and later duplicates are
    dropped -- the one computation serves every occurrence.
    """
    unique: list[Cell] = []
    by_key: dict[str, Cell] = {}
    for cell in cells:
        existing = by_key.get(cell.key)
        if existing is None:
            by_key[cell.key] = cell
            unique.append(cell)
        elif existing.task != cell.task:
            raise SchedulerError(
                f"key collision: {cell.key[:16]} claimed by two different "
                f"tasks ({existing.task!r} vs {cell.task!r})"
            )
    for cell in unique:
        for dep in cell.deps:
            if dep not in by_key:
                raise SchedulerError(
                    f"cell {cell.key[:16]} depends on unknown cell {dep[:16]}"
                )
    placed: set[str] = set()
    remaining = list(unique)
    waves: list[list[Cell]] = []
    while remaining:
        wave = [
            c for c in remaining if all(d in placed for d in c.deps)
        ]
        if not wave:
            stuck = ", ".join(c.key[:12] for c in remaining[:5])
            raise SchedulerError(f"dependency cycle among cells: {stuck} ...")
        waves.append(wave)
        placed.update(c.key for c in wave)
        remaining = [c for c in remaining if c.key not in placed]
    return waves

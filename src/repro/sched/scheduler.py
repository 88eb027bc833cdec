"""The one dispatcher every experiment sweep runs through.

A :class:`Sweep` decomposes a sweep into a cell DAG
(:mod:`repro.sched.cells`), consults its store for each cell before any
work is dispatched, runs the misses wave by wave -- inline, across a
worker pool, or through a fabric coordinator -- and **persists every
completed cell immediately**, so a sweep killed at any point resumes
from the last durable cell, recomputing nothing that already finished.
Results come back in task order whatever the dispatch, so serial,
pooled, fabric, warm and cold sweeps assemble identical reports.

Runs without ``--store`` use the :class:`NullStore`: every probe
misses, every put is dropped, and nothing touches the disk -- the same
dispatcher, with no persistence.

Completion is double-journalled for real stores:

* the **store's write-ahead journal** makes each entry durable and
  crash-consistent (that is the source of truth for ``--resume``);
* a per-sweep **completion journal** under ``<store>/sweeps/`` records
  which cells of *this* sweep finished, so a resumed invocation can
  report "N of M cells were already durable" and tests can assert
  exactly what was recomputed.

Results must never be ``None`` (no experiment result is): ``None`` is
the store's miss sentinel.
"""

from __future__ import annotations

import json
import multiprocessing
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigError, SchedulerError
from repro.experiments.parallel import CellTask, run_cell
from repro.sched.cells import Cell, toposort_waves
from repro.store.keys import cell_key, digest, grid_cell_ingredients
from repro.store.store import ResultStore


class NullStore:
    """The store of a run without ``--store``: it never holds anything.

    ``get`` always misses and ``put`` discards, so every cell is
    computed; with no ``sweeps_dir`` the sweep keeps no completion
    journal, and no file is ever written.
    """

    sweeps_dir = None

    def get(self, key: str) -> None:
        return None

    def put(self, key: str, value: Any, ingredients: dict) -> bool:
        return False


@dataclass
class SweepReport:
    """How one scheduled sweep was satisfied."""

    experiment: str
    total: int = 0
    #: Cells served from the store without recomputation.
    hits: int = 0
    #: Cells computed (and persisted) by this invocation.
    computed: int = 0
    #: Cells the completion journal already recorded when a ``--resume``
    #: invocation opened it (0 for fresh sweeps).
    resumed: int = 0

    @property
    def all_hits(self) -> bool:
        return self.total > 0 and self.hits == self.total

    def describe(self) -> str:
        parts = [f"{self.hits}/{self.total} cells from store"]
        if self.computed:
            parts.append(f"{self.computed} computed")
        if self.resumed:
            parts.append(f"resumed past {self.resumed} journalled cells")
        return ", ".join(parts)


def check_jobs(jobs: int) -> None:
    """Reject a negative worker count (0 and 1 both mean serial)."""
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")


def _indexed_call(item: tuple[int, Callable, Any]) -> tuple[int, Any]:
    """Worker shim: run one cell, tagged with its wave index."""
    index, execute, task = item
    return index, execute(task)


class Sweep:
    """Dispatches one experiment invocation's cells against a store.

    One instance per (experiment entry point, invocation); experiments
    thread it through to their dispatch sites, and build a storeless
    one (``store=None`` means :class:`NullStore`) when handed none.
    ``run_cells`` covers grid sweeps (:class:`CellTask`); ``run_tasks``
    covers any experiment-specific picklable task type with a
    module-level executor; ``run`` takes a ready-made cell DAG.

    ``fabric`` optionally routes each wave's misses through a running
    fabric coordinator (:mod:`repro.fabric`) instead of the in-process
    worker pool: pass a ``HOST:PORT`` address (a connection is opened
    per :meth:`run`) or an already-connected
    :class:`~repro.fabric.client.FabricClient`.  Workers hand results
    back through the store, so fabric dispatch needs a real one.
    """

    def __init__(
        self,
        experiment: str,
        store: ResultStore | None = None,
        resume: bool = False,
        fabric: Any = None,
    ) -> None:
        if store is None:
            store = NullStore()
        if fabric is not None and isinstance(store, NullStore):
            raise SchedulerError(
                "fabric dispatch needs the result store shared with its "
                "workers; a storeless sweep cannot use one"
            )
        self.experiment = experiment
        self.store = store
        self.resume = resume
        self.fabric = fabric
        self.reports: list[SweepReport] = []
        #: Lease lifecycle events across every fabric dispatch (empty
        #: for local sweeps); :func:`repro.obs.manifest.build_manifest`
        #: records them per run.
        self.fabric_events: list[dict] = []

    @property
    def report(self) -> SweepReport:
        """Aggregate over every dispatch this sweep served."""
        total = SweepReport(experiment=self.experiment)
        for r in self.reports:
            total.total += r.total
            total.hits += r.hits
            total.computed += r.computed
            total.resumed += r.resumed
        return total

    # ------------------------------------------------------------------

    def run_cells(
        self,
        tasks: Iterable[CellTask],
        jobs: int = 1,
        progress: bool = False,
    ) -> list[Any]:
        """Run grid cells; results come back in task order."""
        return self.run_tasks(
            tasks,
            run_cell,
            grid_cell_ingredients,
            label_for=lambda t: f"{t.workload} / {t.config}",
            jobs=jobs,
            progress=progress,
        )

    def run_tasks(
        self,
        tasks: Iterable[Any],
        execute: Callable[[Any], Any],
        ingredients_for: Callable[[Any], dict],
        deps_for: Callable[[Any], Iterable[Any]] | None = None,
        label_for: Callable[[Any], str] | None = None,
        jobs: int = 1,
        progress: bool = False,
    ) -> list[Any]:
        """Run arbitrary cells; results come back in task order.

        ``tasks`` must be hashable picklable descriptors; ``execute`` a
        module-level callable; ``ingredients_for`` maps a task to its
        key ingredients; ``deps_for`` optionally maps a task to the
        *tasks* it depends on (which must appear in ``tasks`` too).
        ``jobs > 1`` fans each wave out over that many processes.
        """
        tasks = list(tasks)
        key_by_task: dict[Any, str] = {}
        ing_by_task: dict[Any, dict] = {}
        for task in tasks:
            if task in key_by_task:
                continue
            ingredients = ingredients_for(task)
            ing_by_task[task] = ingredients
            key_by_task[task] = cell_key(ingredients)
        cells = []
        for task in tasks:
            deps: tuple[str, ...] = ()
            if deps_for is not None:
                try:
                    deps = tuple(key_by_task[d] for d in deps_for(task))
                except KeyError as exc:
                    raise SchedulerError(
                        f"dependency {exc.args[0]!r} of task {task!r} is "
                        f"not part of this sweep"
                    ) from None
            cells.append(
                Cell(
                    key=key_by_task[task],
                    ingredients=ing_by_task[task],
                    task=task,
                    execute=execute,
                    deps=deps,
                    label=label_for(task) if label_for is not None else "",
                )
            )
        results = self.run(cells, jobs=jobs, progress=progress)
        return [results[key_by_task[task]] for task in tasks]

    def run(
        self,
        cells: Sequence[Cell],
        jobs: int = 1,
        progress: bool = False,
    ) -> dict[str, Any]:
        """Execute the DAG; returns ``{cell key: result}`` for all cells.

        Store hits skip execution entirely; misses run wave by wave
        (dependencies first) and are persisted the moment they complete,
        with a completion record appended to the sweep journal.  The
        dispatch's :class:`SweepReport` is appended to :attr:`reports`.
        """
        check_jobs(jobs)
        waves = toposort_waves(cells)
        ordered = [cell for wave in waves for cell in wave]
        report = SweepReport(experiment=self.experiment, total=len(ordered))
        journal = self._journal_path(ordered)
        report.resumed = self._open_journal(journal, len(ordered), progress)

        results: dict[str, Any] = {}
        for cell in ordered:
            value = self.store.get(cell.key)
            if value is not None:
                results[cell.key] = value
                report.hits += 1
        if progress and ordered and journal is not None:  # a real store
            print(
                f"  store: {report.hits}/{len(ordered)} cells warm, "
                f"computing {len(ordered) - report.hits}",
                flush=True,
            )

        def on_done(cell: Cell, value: Any) -> None:
            if value is None:
                raise SchedulerError(
                    f"cell {cell.label or cell.key[:12]} produced None "
                    f"(reserved as the store's miss sentinel)"
                )
            self.store.put(cell.key, value, cell.ingredients)
            _append_line(journal, {"op": "cell-done", "key": cell.key})
            results[cell.key] = value
            report.computed += 1

        client, owns_client = self._fabric_client()
        try:
            for wave in waves:
                pending = [c for c in wave if c.key not in results]
                if client is not None:
                    self._execute_wave_fabric(pending, client, progress, on_done)
                else:
                    self._execute_wave(pending, jobs, progress, on_done)
        finally:
            if client is not None:
                self.fabric_events.extend(client.events)
                if owns_client:
                    client.close()
        _append_line(journal, {"op": "sweep-done"})
        self.reports.append(report)
        return results

    # ------------------------------------------------------------------

    def _journal_path(self, cells: Sequence[Cell]) -> Path | None:
        """This sweep's completion journal (None: the store keeps none)."""
        if self.store.sweeps_dir is None:
            return None
        sweep_id = digest(
            {
                "experiment": self.experiment,
                "keys": sorted({c.key for c in cells}),
            }
        )[:16]
        return self.store.sweeps_dir / f"{self.experiment}-{sweep_id}.jsonl"

    def _open_journal(
        self, journal: Path | None, total: int, progress: bool
    ) -> int:
        """Start or resume the sweep's completion journal.

        Returns the number of cells an interrupted prior invocation had
        already journalled (only honoured under ``resume``; otherwise
        the journal restarts, while store entries still serve as hits).
        """
        if journal is None:
            return 0
        if journal.exists() and self.resume:
            done = False
            seen: set[str] = set()
            for record in _read_lines(journal):
                if record.get("op") == "cell-done" and "key" in record:
                    seen.add(record["key"])
                elif record.get("op") == "sweep-done":
                    done = True
            if not done:
                _append_line(journal, {"op": "sweep-resume"})
                if progress:
                    print(
                        f"  resuming interrupted sweep "
                        f"{journal.stem}: {len(seen)}/{total} cells "
                        f"already journalled durable",
                        flush=True,
                    )
                return len(seen)
        journal.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "op": "sweep-begin",
            "experiment": self.experiment,
            "cells": total,
        }
        journal.write_text(
            json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
        )
        return 0

    def _fabric_client(self) -> tuple[Any, bool]:
        """Resolve ``self.fabric`` to a connected client (or ``(None, False)``).

        An address string opens a connection this run owns and closes;
        an object exposing ``run_wave`` is used as-is (caller-owned).
        """
        if self.fabric is None:
            return None, False
        if hasattr(self.fabric, "run_wave"):
            return self.fabric, False
        from repro.fabric.client import FabricClient

        client = FabricClient(str(self.fabric))
        client.connect()
        return client, True

    def _execute_wave_fabric(
        self,
        pending: Sequence[Cell],
        client: Any,
        progress: bool,
        on_done: Callable[[Cell, Any], None],
    ) -> None:
        """Run one wave's misses through the fabric coordinator.

        The wave is submitted as one batch; workers commit each result
        to the shared store and the coordinator streams per-cell
        completions back, at which point the value is read *from the
        store* (results never cross the wire) and handed to the same
        ``on_done`` the local path uses -- its ``store.put`` is an
        idempotent no-op on an already-durable key, so journalling and
        report accounting stay identical to a local run.
        """
        if not pending:
            return
        if progress:
            print(
                f"  dispatching {len(pending)} cells to fabric at "
                f"{client.address} ...",
                flush=True,
            )
        by_key = {cell.key: cell for cell in pending}

        def fabric_done(key: str) -> None:
            cell = by_key.get(key)
            if cell is None:  # completion for some other batch's key
                return
            value = self.store.get(key)
            if value is None:
                raise SchedulerError(
                    f"fabric reported cell {cell.label or key[:12]} done "
                    f"but the store has no readable entry for it"
                )
            on_done(cell, value)

        client.run_wave(pending, fabric_done)

    def _execute_wave(
        self,
        pending: Sequence[Cell],
        jobs: int,
        progress: bool,
        on_done: Callable[[Cell, Any], None],
    ) -> None:
        """Run one wave's misses inline or across ``jobs`` processes.

        ``jobs <= 1`` (or a single pending cell) never touches
        multiprocessing.  The pool path uses ``imap_unordered`` so
        results are persisted -- and therefore resumable -- as workers
        finish, not when the whole wave does; ``on_done`` files each
        under its key, so completion order never reaches the report.
        """
        if jobs <= 1 or len(pending) <= 1:
            for cell in pending:
                if progress:
                    print(
                        f"  running {cell.label or cell.key[:12]} ...",
                        flush=True,
                    )
                on_done(cell, cell.execute(cell.task))
            return
        workers = min(jobs, len(pending))
        if progress:
            print(
                f"  dispatching {len(pending)} cells across "
                f"{workers} workers ...",
                flush=True,
            )
        items = [(i, cell.execute, cell.task) for i, cell in enumerate(pending)]
        with multiprocessing.get_context().Pool(processes=workers) as pool:
            # chunksize=1: cells are coarse (seconds each), so favour
            # load balance over dispatch overhead.
            for index, value in pool.imap_unordered(
                _indexed_call, items, chunksize=1
            ):
                on_done(pending[index], value)


# ----------------------------------------------------------------------
# Journal plumbing


def _append_line(path: Path | None, record: dict) -> None:
    if path is None:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        fh.flush()


def _read_lines(path: Path) -> list[dict]:
    records = []
    try:
        text = path.read_text()
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            break  # torn tail from a mid-append crash
        if isinstance(record, dict):
            records.append(record)
    return records

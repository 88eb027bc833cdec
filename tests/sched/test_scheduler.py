"""Scheduler mechanics: DAG layering, dispatch, journals, resume.

These tests drive :class:`Sweep` with tiny
synthetic cells (module-level executors over plain tuples) so the
scheduling contract is provable without running the simulator; the
experiment-level behaviour is covered by test_warm_equivalence.py.
"""

import json

import pytest

from repro.errors import SchedulerError
from repro.sched import Cell, NullStore, Sweep, toposort_waves
from repro.store.store import ResultStore


def _cell(key_char, deps=(), task=None, execute=None):
    key = key_char * 40
    return Cell(
        key=key,
        ingredients={"kind": "synthetic", "id": key_char},
        task=task if task is not None else key_char,
        execute=execute if execute is not None else _double,
        deps=tuple(d * 40 for d in deps),
        label=f"cell-{key_char}",
    )


def _double(task):
    return task * 2


def _crash_on_c(task):
    if task == "c":
        raise RuntimeError("injected crash")
    return task * 2


class TestToposort:
    def test_independent_cells_form_one_wave(self):
        waves = toposort_waves([_cell("a"), _cell("b"), _cell("c")])
        assert [[c.key[0] for c in w] for w in waves] == [["a", "b", "c"]]

    def test_dependencies_layer_into_waves(self):
        waves = toposort_waves(
            [_cell("c", deps="b"), _cell("b", deps="a"), _cell("a")]
        )
        assert [[c.key[0] for c in w] for w in waves] == [["a"], ["b"], ["c"]]

    def test_duplicate_keys_with_identical_tasks_dedup(self):
        waves = toposort_waves([_cell("a"), _cell("a")])
        assert sum(len(w) for w in waves) == 1

    def test_duplicate_keys_with_different_tasks_collide(self):
        with pytest.raises(SchedulerError, match="collision"):
            toposort_waves([_cell("a", task="x"), _cell("a", task="y")])

    def test_unknown_dependency_is_rejected(self):
        with pytest.raises(SchedulerError, match="unknown"):
            toposort_waves([_cell("a", deps="z")])

    def test_cycle_is_rejected(self):
        with pytest.raises(SchedulerError, match="cycle"):
            toposort_waves([_cell("a", deps="b"), _cell("b", deps="a")])


class TestSchedulerRun:
    def test_cold_run_computes_and_persists_everything(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        sched = Sweep("synthetic", store)
        cells = [_cell("a"), _cell("b", deps="a")]
        results = sched.run(cells)
        assert results == {"a" * 40: "aa", "b" * 40: "bb"}
        assert sched.report.computed == 2
        assert sched.report.hits == 0
        assert store.get("a" * 40) == "aa"

    def test_warm_run_hits_everything(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        cells = [_cell("a"), _cell("b", deps="a")]
        Sweep("synthetic", store).run(cells)

        def _never(task):  # noqa: ARG001 - executor must not be reached
            raise AssertionError("warm run must not execute cells")

        warm_cells = [
            _cell("a", execute=_never), _cell("b", deps="a", execute=_never)
        ]
        sched = Sweep("synthetic", store)
        results = sched.run(warm_cells)
        assert sched.report.all_hits
        assert sched.report.computed == 0
        assert results["a" * 40] == "aa"

    def test_none_result_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        sched = Sweep("synthetic", store)
        with pytest.raises(SchedulerError, match="None"):
            sched.run([_cell("a", execute=_return_none)])

    def test_crash_mid_sweep_keeps_completed_cells_durable(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        cells = [
            _cell("a", execute=_crash_on_c),
            _cell("b", execute=_crash_on_c),
            _cell("c", execute=_crash_on_c),
        ]
        with pytest.raises(RuntimeError, match="injected"):
            Sweep("synthetic", store).run(cells)
        # a and b landed before the crash; c did not.
        assert store.get("a" * 40) == "aa"
        assert store.get("b" * 40) == "bb"
        assert store.get("c" * 40) is None

        resumed = Sweep("synthetic", ResultStore(tmp_path / "st"), resume=True)
        results = resumed.run([_cell("a"), _cell("b"), _cell("c")])
        assert results["c" * 40] == "cc"
        assert resumed.report.hits == 2
        assert resumed.report.computed == 1
        assert resumed.report.resumed == 2

    def test_parallel_run_matches_serial(self, tmp_path):
        serial_store = ResultStore(tmp_path / "s1")
        parallel_store = ResultStore(tmp_path / "s2")
        cells = [_cell(ch) for ch in "abcd"]
        serial = Sweep("synthetic", serial_store).run(cells, jobs=1)
        par = Sweep("synthetic", parallel_store).run(cells, jobs=2)
        assert serial == par


def _return_none(task):  # noqa: ARG001
    return None


class TestSweepJournal:
    def test_journal_records_sweep_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        sched = Sweep("synthetic", store)
        sched.run([_cell("a"), _cell("b")])
        (journal,) = store.sweeps_dir.glob("synthetic-*.jsonl")
        ops = [
            json.loads(line)["op"]
            for line in journal.read_text().splitlines()
        ]
        assert ops[0] == "sweep-begin"
        assert ops.count("cell-done") == 2
        assert ops[-1] == "sweep-done"

    def test_resume_ignores_completed_sweeps(self, tmp_path):
        """A finished journal is not 'resumed'; it is restarted."""
        store = ResultStore(tmp_path / "st")
        Sweep("synthetic", store).run([_cell("a")])
        sched = Sweep("synthetic", store, resume=True)
        sched.run([_cell("a")])
        assert sched.report.resumed == 0
        assert sched.report.hits == 1

    def test_deleting_the_journal_does_not_break_resume(self, tmp_path):
        """The store is the source of truth; the journal is advisory."""
        store = ResultStore(tmp_path / "st")
        Sweep("synthetic", store).run([_cell("a"), _cell("b")])
        for journal in store.sweeps_dir.glob("*.jsonl"):
            journal.unlink()
        sched = Sweep("synthetic", store, resume=True)
        sched.run([_cell("a"), _cell("b")])
        assert sched.report.all_hits


class TestSweepFrontDoor:
    def test_run_tasks_returns_results_in_task_order(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        sweep = Sweep("synthetic", store)
        out = sweep.run_tasks(
            ["b", "a", "c"],
            _double,
            lambda t: {"kind": "synthetic", "id": t},
        )
        assert out == ["bb", "aa", "cc"]

    def test_duplicate_tasks_compute_once(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        sweep = Sweep("synthetic", store)
        out = sweep.run_tasks(
            ["a", "a", "b"], _double, lambda t: {"id": t}
        )
        assert out == ["aa", "aa", "bb"]
        assert sweep.report.total == 2
        assert sweep.report.computed == 2

    def test_dep_outside_the_sweep_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        sweep = Sweep("synthetic", store)
        with pytest.raises(SchedulerError, match="not part of this sweep"):
            sweep.run_tasks(
                ["a"],
                _double,
                lambda t: {"id": t},
                deps_for=lambda t: ["missing"],
            )

    def test_aggregate_report_sums_dispatches(self, tmp_path):
        store = ResultStore(tmp_path / "st")
        sweep = Sweep("synthetic", store)
        sweep.run_tasks(["a"], _double, lambda t: {"id": t})
        sweep.run_tasks(["a", "b"], _double, lambda t: {"id": t})
        assert sweep.report.total == 3
        assert sweep.report.hits == 1
        assert sweep.report.computed == 2


class TestNullStore:
    def test_storeless_sweep_computes_every_cell(self):
        sweep = Sweep("synthetic")
        assert isinstance(sweep.store, NullStore)
        results = sweep.run([_cell("a"), _cell("b", deps="a")])
        assert results == {"a" * 40: "aa", "b" * 40: "bb"}
        again = sweep.run([_cell("a")])
        assert again == {"a" * 40: "aa"}
        assert sweep.report.hits == 0
        assert sweep.report.computed == sweep.report.total == 3

    def test_none_result_is_still_rejected(self):
        with pytest.raises(SchedulerError, match="None"):
            Sweep("synthetic").run([_cell("a", execute=_return_none)])

    def test_fabric_needs_a_real_store(self):
        with pytest.raises(SchedulerError, match="store"):
            Sweep("synthetic", fabric="127.0.0.1:1")

"""Storeless sweeps on the one dispatcher: determinism, order, serial path."""

import pytest

from repro.errors import ConfigError
from repro.experiments import figure13, report
from repro.experiments.common import run_grid
from repro.experiments.parallel import CellTask
from repro.sched import NullStore, Sweep

SMOKE_WORKLOADS = ("gups", "graph500")
SMOKE_CONFIGS = ("4K", "DS", "DD")
SMOKE_LENGTH = 2000


def test_jobs4_report_is_byte_identical_to_serial():
    """The satellite criterion: --jobs 4 == --jobs 1, byte for byte."""
    serial = run_grid(
        SMOKE_WORKLOADS, SMOKE_CONFIGS, trace_length=SMOKE_LENGTH, seed=3, jobs=1
    )
    parallel = run_grid(
        SMOKE_WORKLOADS, SMOKE_CONFIGS, trace_length=SMOKE_LENGTH, seed=3, jobs=4
    )
    assert report.dumps(serial) == report.dumps(parallel)


def test_results_come_back_in_task_order():
    tasks = [
        CellTask(workload=w, config=c, trace_length=SMOKE_LENGTH, seed=0)
        for w in SMOKE_WORKLOADS
        for c in ("4K", "DD")
    ]
    results = Sweep("grid").run_cells(tasks, jobs=2)
    assert [r.workload_name for r in results] == [t.workload for t in tasks]
    assert [r.config.label for r in results] == [t.config for t in tasks]


def test_serial_fallback_never_uses_multiprocessing(monkeypatch):
    """jobs=1 must work even where multiprocessing is unavailable."""
    import multiprocessing

    def broken(*args, **kwargs):
        raise AssertionError("pool created on the serial path")

    monkeypatch.setattr(multiprocessing, "get_context", broken)
    tasks = [
        CellTask(workload="gups", config="4K", trace_length=SMOKE_LENGTH, seed=0)
    ]
    results = Sweep("grid").run_cells(tasks, jobs=1)
    assert len(results) == 1
    # A single task also short-circuits to inline execution.
    assert len(Sweep("grid").run_cells(tasks, jobs=8)) == 1


def test_parallel_map_matches_inline_map():
    """A pooled storeless sweep of any executor is the inline map."""
    items = list(range(10))

    def run(tasks, jobs):
        return Sweep("synthetic").run_tasks(
            tasks, _square, lambda t: {"id": t}, jobs=jobs
        )

    assert run(items, jobs=3) == [i * i for i in items]
    assert run(items, jobs=1) == [i * i for i in items]
    assert run([], jobs=3) == []


def _square(x):
    return x * x


def test_negative_jobs_rejected():
    with pytest.raises(ConfigError):
        Sweep("synthetic").run_tasks([1, 2], _square, lambda t: {"id": t}, jobs=-1)
    # Rejected even when there is nothing to run, and on every path.
    with pytest.raises(ConfigError, match="jobs must be >= 0"):
        run_grid((), (), jobs=-3)
    with pytest.raises(ConfigError, match="jobs must be >= 0"):
        figure13.run(workloads=(), jobs=-3)


def test_negative_jobs_is_a_usage_error(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["figure1", "--smoke", "--no-store", "--jobs", "-3"])
    assert exc.value.code == 2
    assert "jobs must be >= 0, got -3" in capsys.readouterr().err


def test_figure13_parallel_matches_serial():
    """Trial fan-out reproduces the serial figure exactly."""
    kwargs = dict(
        trace_length=SMOKE_LENGTH,
        workloads=("gups",),
        bad_counts=(1, 4),
        trials=2,
    )
    serial = figure13.run(jobs=1, **kwargs)
    parallel = figure13.run(jobs=4, **kwargs)
    assert report.dumps(serial) == report.dumps(parallel)


def test_storeless_sweep_writes_no_file(tmp_path, monkeypatch):
    """The null store keeps no journal and persists nothing."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_STORE", raising=False)
    sweep = Sweep("figure13")
    assert isinstance(sweep.store, NullStore)
    figure13.run(
        trace_length=SMOKE_LENGTH,
        workloads=("gups",),
        bad_counts=(1,),
        trials=1,
        sweep=sweep,
    )
    assert sweep.report.computed == sweep.report.total == 2
    assert sweep.report.hits == 0
    run_grid(("gups",), ("4K",), trace_length=SMOKE_LENGTH)
    assert list(tmp_path.iterdir()) == []

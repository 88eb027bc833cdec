"""Bench baseline path resolution must be independent of the cwd.

Regression tests for the update-mode bug where ``REPRO_BENCH_UPDATE=1``
runs invoked from outside the repository root wrote a fresh
``BENCH_simulator.json`` relative to the current working directory
instead of refreshing the committed file under ``benchmarks/``.
"""

import json
import os

from repro.experiments import bench


def test_baseline_path_is_absolute():
    assert bench.BASELINE_PATH.is_absolute()
    assert bench.BASELINE_PATH.name == "BENCH_simulator.json"
    assert bench.BASELINE_PATH.parent.name == "benchmarks"


def test_resolve_none_is_committed_path():
    assert bench.resolve_baseline_path(None) == bench.BASELINE_PATH


def test_resolve_relative_anchors_at_benchmarks_dir(tmp_path, monkeypatch):
    """A relative path resolves against benchmarks/, not the cwd."""
    monkeypatch.chdir(tmp_path)
    resolved = bench.resolve_baseline_path("BENCH_simulator.json")
    assert resolved == bench.BASELINE_PATH
    assert not (tmp_path / "BENCH_simulator.json").exists()


def test_resolve_absolute_passes_through(tmp_path):
    target = tmp_path / "elsewhere.json"
    assert bench.resolve_baseline_path(target) == target


def test_write_baseline_lands_at_resolved_path_from_any_cwd(
    tmp_path, monkeypatch
):
    """Update mode writes to the resolved location regardless of cwd."""
    baseline = tmp_path / "repo" / "benchmarks" / "BENCH_simulator.json"
    monkeypatch.setattr(bench, "BASELINE_PATH", baseline)
    cwd = tmp_path / "somewhere" / "else"
    cwd.mkdir(parents=True)
    monkeypatch.chdir(cwd)

    result = bench.BenchResult()
    result.metrics = {"batched_speedup": 2.5, "obs_disabled_ratio": 1.0}
    written = bench.write_baseline(result)

    assert written == baseline
    assert baseline.exists(), "parent directories must be created"
    assert not (cwd / "BENCH_simulator.json").exists(), (
        "no cwd-relative copy may appear"
    )
    payload = json.loads(baseline.read_text())
    assert payload["metrics"]["batched_speedup"] == 2.5
    # load_baseline round-trips through the same resolution.
    assert bench.load_baseline()["obs_disabled_ratio"] == 1.0


def test_run_update_mode_refreshes_resolved_baseline(tmp_path, monkeypatch):
    """REPRO_BENCH_UPDATE=1 refreshes the committed file, from any cwd."""
    baseline = tmp_path / "repo" / "benchmarks" / "BENCH_simulator.json"
    monkeypatch.setattr(bench, "BASELINE_PATH", baseline)
    monkeypatch.setattr(bench, "ENGINE_REFS", 4_000)
    monkeypatch.setattr(bench, "ENGINE_REPEATS", 1)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setitem(os.environ, "REPRO_BENCH_UPDATE", "1")

    result = bench.run()

    assert baseline.exists()
    assert not (cwd / "BENCH_simulator.json").exists()
    # run() reloads the file it just wrote, so the comparison columns
    # show the refreshed values.
    assert result.baseline
    assert set(result.baseline) == set(result.metrics)

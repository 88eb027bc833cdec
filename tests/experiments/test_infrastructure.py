"""Tests for the experiment infrastructure and cheap experiments."""

import pytest

from repro.experiments import ablations, sharing
from repro.experiments.common import RunGrid, format_table, run_grid


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["a", 1.5], ["bbbb", 22]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "-+-" in lines[2]
        # All rows same width.
        assert len({len(line) for line in lines[1:]}) == 1

    def test_float_formatting(self):
        text = format_table(["x"], [[3.14159]])
        assert "3.14" in text and "3.1416" not in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestRunGrid:
    def test_grid_population(self, tiny_workload, monkeypatch):
        # Cells resolve workloads where their keys are computed and
        # inside the (serial or worker-side) cell runner, so both
        # lookups are patched.
        import repro.experiments.parallel as parallel
        import repro.store.keys as keys

        for module in (parallel, keys):
            monkeypatch.setattr(
                module, "create_workload", lambda name: tiny_workload
            )
        grid = run_grid(["tiny"], ["4K", "DD"], trace_length=2000)
        assert isinstance(grid, RunGrid)
        assert grid.get("tiny", "4K").config.label == "4K"
        assert grid.overhead_percent("tiny", "DD") < grid.overhead_percent("tiny", "4K")

    def test_missing_cell_raises(self):
        grid = RunGrid(workloads=("a",), configs=("4K",))
        with pytest.raises(KeyError):
            grid.get("a", "4K")


class TestSharingExperiment:
    def test_pairs_enumeration(self):
        result = sharing.run(workloads=("graph500", "gups"))
        pairs = {(p.workload_a, p.workload_b) for p in result.pairs}
        assert pairs == {
            ("graph500", "graph500"),
            ("graph500", "gups"),
            ("gups", "gups"),
        }

    def test_format(self):
        result = sharing.run(workloads=("graph500",))
        text = sharing.format_study(result)
        assert "graph500" in text
        assert "%" in text


class TestAblationHelpers:
    def test_filter_geometry_points(self):
        points = ablations.sweep_filter_geometry(
            bits_options=(64, 256), probe_pages=20_000
        )
        assert [p.total_bits for p in points] == [64, 256]
        assert all(0 <= p.false_positive_rate <= 1 for p in points)

    def test_filter_geometry_format(self):
        points = ablations.sweep_filter_geometry(
            bits_options=(256,), probe_pages=5_000
        )
        assert "256" in ablations.format_filter_geometry(points)


class TestCli:
    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_experiment_registry_covers_paper(self):
        from repro.experiments.__main__ import EXPERIMENTS

        for name in (
            "figure1",
            "figure11",
            "figure12",
            "figure13",
            "breakdown",
            "table3",
            "table4",
            "shadow",
            "sharing",
            "energy",
        ):
            assert name in EXPERIMENTS

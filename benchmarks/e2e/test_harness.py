"""Self-test of the benchmark harness at smoke scale: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import harness, layers
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.workloads import SMOKE

ROOT = harness.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def run_smoke(*args: str) -> subprocess.CompletedProcess:
    script = ROOT / "benchmarks" / "e2e" / "run.py"
    cmd = [sys.executable, str(script), "--smoke", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)


def result_lines(proc: subprocess.CompletedProcess) -> list[dict]:
    lines = proc.stdout.splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


def test_benchmark_json_names_the_harness_workloads():
    assert tuple(w["name"] for w in BENCH["workloads"]) == harness.WORKLOADS
    assert [m["name"] for m in BENCH["per_layer"]] == list(layers.METRICS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, trace, section):
    out = tmp_path / "runs.jsonl"
    proc = run_smoke("--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    lines = result_lines(proc)
    assert len(lines) == len(harness.WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        values = [v["value"] for v in line["metrics"].values()]
        assert all(isinstance(v, (int, float)) for v in values)
    for name, unit in expected.items():
        pattern = rf"^ +{re.escape(name)} +\S+ {re.escape(unit)}$"
        assert re.search(pattern, proc.stdout, re.M), name
    for record in map(json.loads, out.read_text().splitlines()):
        assert not any("unchecked" in note for note in record["notes"])
        if trace:
            layer_sum = sum(record["layer_seconds"].values())
            assert layer_sum == pytest.approx(record["traced_sweep_s"], rel=0.05)


def test_traced_pass_restores_every_wrapper(tmp_path):
    from benchmarks.e2e.child import run_pass
    from repro.store import ResultStore

    def current():
        return [layers.resolve(module, path)[2] for _, module, path in layers.TARGETS]

    originals = current()
    tracer = layers.Tracer()
    with tracer.installed():
        assert all(now is not before for now, before in zip(current(), originals))
        store = ResultStore(tmp_path / "store")
        record = run_pass(SMOKE["store-rerun"], 0, store, tracer)
    assert all(now is before for now, before in zip(current(), originals))
    assert tracer.missing == []

    from repro.core.mmu import MMU

    names = [name for name, _, _ in layers.TARGETS]
    assert MMU.access is originals[names.index("access")]
    spans = [span.to_list() for span in tracer.spans]
    sweep = sum(seconds for seconds, _ in record["calls"])
    assert sum(layers.layer_seconds(spans).values()) == pytest.approx(sweep, rel=0.05)
    assert record["warm_mismatches"] == 0


def test_corrupted_digest_fails_every_cell(tmp_path):
    digests = json.loads(harness.DIGESTS.read_text())
    cells = digests["smoke"]["walk-nested"]["0"]
    for cell in cells:
        cells[cell] = "0" * len(cells[cell])
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(digests))
    proc = run_smoke("--workload", "walk-nested", "--digests", str(path))
    assert proc.returncode != 0
    line = result_lines(proc)[-1]
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0
    assert re.search(r"^ +failed_frac +1 ratio", proc.stdout, re.M)


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert verdict(base, base, 0.1, "lower")[0] == "unchanged"
    assert verdict(base, [v * 0.8 for v in base], 0.1, "lower")[0] == "improved"
    assert verdict(base, [v * 1.2 for v in base], 0.1, "lower")[0] == "regressed"
    noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert verdict(base, noisy, 0.1, "lower")[0] == "unresolved"
    assert verdict(base, [v * 1.2 for v in base], 0.1, "higher")[0] == "improved"

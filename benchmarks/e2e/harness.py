"""The end-to-end benchmark harness (parent side).

For one workload the harness runs passes -- each in a fresh child
process, one at a time, serially inside (``jobs=1``) -- until the next
pass would overrun ``--seconds``, checks every cell against the
committed digests, and prints each metric by name and unit.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1``
every other pass runs with the layer wrappers installed; the metrics
are then the per-layer ones, and the spans go to
``bench-artifacts/bench.chrome-trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e import layers
from benchmarks.e2e.child import RESULT_PREFIX
from benchmarks.e2e.workloads import SCALES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
ARTIFACTS = ROOT / "bench-artifacts"
CHROME_TRACE = ARTIFACTS / "bench.chrome-trace.json"
DIGESTS = HERE / "digests.json"
BASELINE = HERE / "baseline.json"

WORKLOADS = tuple(SCALES["full"])

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "refs_per_s": "refs/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Seeds whose per-cell digests are committed, per scale.
DIGEST_SEEDS = {"full": range(32), "smoke": range(2)}

#: Passes per run at least, however short ``--seconds`` is.  A traced
#: run alternates untraced and traced passes, so it needs pairs.
MIN_PASSES = {("full", 0): 3, ("full", 1): 4, ("smoke", 0): 1, ("smoke", 1): 2}

#: A pass slower than this many times the baseline ``sweep_s`` counts
#: all of its cells as failed.
SLOW_FACTOR = 5

CHILD_TIMEOUT_S = 120

#: Per-layer counts shown beside each row of the printed layer table.
LAYER_COUNTS = {
    "trace": ("trace.generated",),
    "boot": ("boot.systems",),
    "populate": ("populate.pages",),
    "translate": ("translate.refs", "translate.scalar_refs", "translate.walks"),
    "store": ("store.gets", "store.puts"),
}


def child_env() -> dict:
    """The child's environment: the checkout's sources, nothing ambient.

    A user's ``REPRO_STORE`` could serve storeless cells warm, a
    trace-cache bound changes how often traces are regenerated, and BLAS
    thread pools would compete for the cores the pass runs on.
    """
    env = dict(os.environ)
    for name in ("REPRO_STORE", "REPRO_TRACE_CACHE_BYTES"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(
    name: str, scale: str, seed: int, traced: bool, setup_only: bool = False
) -> dict:
    """Run one child; returns its record plus ``wall`` (spawn to exit)."""
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", name, "--scale", scale, "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    store = None
    if SCALES[scale][name].warm_calls:
        store = ARTIFACTS / "stores" / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
        cmd += ["--store", str(store)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        proc = None
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
    record = {"traced": traced, "wall": time.monotonic() - t0}
    if proc is None:
        record["error"] = f"child timed out after {CHILD_TIMEOUT_S} s"
        return record
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not lines:
        record["error"] = f"child exited {proc.returncode} without a result"
    else:
        record.update(json.loads(lines[-1][len(RESULT_PREFIX):]))
    return record


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def run_workload(
    name: str,
    scale: str,
    seed: int,
    seconds: float,
    trace: bool,
    digests_path: Path = DIGESTS,
) -> dict:
    """Run one workload for ``seconds``; returns the result record."""
    spec = SCALES[scale][name]
    # Untimed warm-up child: compiles bytecode, warms the file cache.
    spawn(name, scale, seed, traced=False, setup_only=True)
    passes = []
    start = time.monotonic()
    while True:
        record = spawn(name, scale, seed, traced=trace and len(passes) % 2 == 1)
        passes.append(record)
        elapsed = time.monotonic() - start
        enough = len(passes) >= MIN_PASSES[scale, int(trace)]
        if enough and elapsed + record["wall"] > seconds:
            break

    expected = _load_json(digests_path).get(scale, {}).get(name, {}).get(str(seed))
    notes = []
    if expected is None:
        notes.append(
            f"unchecked: no committed digests for {name} seed {seed} ({scale}); "
            "passes are only checked against each other"
        )
        expected = next((p["digests"] for p in passes if "digests" in p), {})
    baseline = _load_json(BASELINE).get("workloads", {}).get(name, {}).get("sweep_s")
    slow_limit = SLOW_FACTOR * baseline if baseline and scale == "full" else None

    attempted = failed = 0
    cells = spec.cells * (1 + spec.warm_calls)
    for index, p in enumerate(passes):
        attempted += cells
        if "error" in p:
            failed += cells
            notes.append(f"pass {index}: {p['error']}")
            continue
        p["sweep_s"] = sum(call_s for call_s, _ in p["calls"])
        if slow_limit is not None and p["sweep_s"] > slow_limit:
            failed += cells
            notes.append(
                f"pass {index}: {p['sweep_s']:.2f} s > {SLOW_FACTOR}x baseline sweep_s"
            )
            continue
        digests = p["digests"]
        bad = sum(digests.get(cell) != digest for cell, digest in expected.items())
        bad += len(digests.keys() - expected.keys()) + p["warm_mismatches"]
        if bad:
            notes.append(f"pass {index}: {bad} cell(s) differ from their digest")
        failed += bad

    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    usable = bool(plain) and (bool(traced) or not trace)
    for target in traced[0].get("missing", []) if traced else ():
        notes.append(f"wrapped target missing, its metrics print null: {target}")
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "passes": len(passes),
        "correct": failed == 0 and usable,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "metrics": {},
    }
    if not usable:
        return result
    if trace:
        result["metrics"] = _layer_metrics(traced, plain)
        result["layer_seconds"] = _median_dicts(
            [layers.layer_seconds(p["spans"]) for p in traced]
        )
        result["traced_sweep_s"] = statistics.median(p["sweep_s"] for p in traced)
        _write_chrome_trace(name, traced[-1]["spans"])
    else:
        result["metrics"] = _end_to_end(plain, spec.trace_length)
    return result


def _end_to_end(passes: list[dict], trace_length: int) -> dict:
    calls = [call_s for p in passes for call_s, _ in p["calls"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "sweep_s": statistics.median(p["sweep_s"] for p in passes),
        "refs_per_s": statistics.median(
            trace_length * sum(n for _, n in p["calls"]) / p["sweep_s"]
            for p in passes
        ),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _median_dicts(dicts: list[dict]) -> dict:
    """Key-wise median; a key that is None in any dict stays None."""
    out = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        out[key] = None if None in values else statistics.median(values)
    return out


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    missing = layers.unmeasured(traced[0].get("missing", []))
    values = _median_dicts([layers.pass_metrics(p["spans"], missing) for p in traced])
    values["trace_overhead_frac"] = (
        statistics.median(p["sweep_s"] for p in traced)
        / statistics.median(p["sweep_s"] for p in plain)
        - 1
    )
    return {k: {"value": values[k], "unit": u} for k, u in layers.METRICS.items()}


def _write_chrome_trace(name: str, spans: list) -> None:
    """Replace this workload's lane in the shared Chrome-trace file."""
    lane = WORKLOADS.index(name) + 1
    kept = _load_json(CHROME_TRACE).get("traceEvents", [])
    events = [e for e in kept if e.get("tid") != lane]
    events.append(
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": lane, "args": {"name": name}}
    )
    events.extend(layers.chrome_events(spans, lane))
    ARTIFACTS.mkdir(exist_ok=True)
    CHROME_TRACE.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def update_digests(names: list[str], scale: str, digests_path: Path) -> int:
    """Recompute the committed digests of ``names`` for every digest seed."""
    data = _load_json(digests_path)
    for name in names:
        for seed in DIGEST_SEEDS[scale]:
            record = spawn(name, scale, seed, traced=False)
            if "error" in record:
                print(f"{name} seed {seed}: {record['error']}", file=sys.stderr)
                return 1
            data.setdefault(scale, {}).setdefault(name, {})[str(seed)] = record["digests"]
            print(f"{name} seed {seed}: {len(record['digests'])} cells", flush=True)
    digests_path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def _fmt(value: float | None) -> str:
    return "null (target missing)" if value is None else f"{value:.6g}"


def _print_report(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(
        f"== {result['workload']} (seed {result['seed']}, {result['scale']}, "
        f"{mode}, {result['passes']} passes) =="
    )
    for note in result["notes"]:
        print(f"  note: {note}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {_fmt(metric['value'])} {metric['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    frac = failed / attempted if attempted else 0.0
    print(f"  {'failed_frac':28s} {frac:.6g} ratio ({failed}/{attempted} cells)")
    if "layer_seconds" in result:
        total = sum(result["layer_seconds"].values())
        print(f"  layer table (median traced pass; self time, share of {total:.4g} s):")
        for layer, seconds in result["layer_seconds"].items():
            share = seconds / total if total else 0.0
            counts = "".join(
                f"  {name.split('.')[-1]}={_fmt(result['metrics'][name]['value'])}"
                for name in LAYER_COUNTS.get(layer, ())
            )
            print(f"    {layer:10s} {seconds:10.4f} s {100 * share:6.1f} %{counts}")


def main(argv: list[str] | None = None) -> int:
    bench = _load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e run", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench.get("run_seconds", 20))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--smoke", action="store_true", help="self-test scale")
    parser.add_argument("--out", type=Path, help="append one JSON record per workload")
    parser.add_argument("--digests", type=Path, default=DIGESTS)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "full"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.update_digests:
        return update_digests(names, scale, args.digests)

    status = 0
    for name in names:
        result = run_workload(
            name, scale, args.seed, args.seconds, bool(args.trace), args.digests
        )
        _print_report(result)
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")
        line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
        if not result["correct"]:
            status = 1
    stores = ARTIFACTS / "stores"
    if stores.is_dir() and not any(stores.iterdir()):
        stores.rmdir()
    return status

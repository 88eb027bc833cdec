"""Command-line runner: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.experiments <name> [--trace-length N] [--quick]
                                       [--jobs N] [--json]
                                       [--metrics] [--profile]
                                       [--trace-out FILE]
                                       [--manifest-out FILE] [--interval N]
    python -m repro.experiments stats <manifest.json> [--diff OTHER] [--json]
    python -m repro.experiments profile [--workload W] [--config LABEL]
                                        [--top K] [--folded FILE]
                                        [--html FILE] [--per-page]
    python -m repro.experiments store {ls,verify,gc,export} [...]
    python -m repro.experiments fabric {serve,work,status} [...]

where ``<name>`` is one of: figure1, figure11, figure12, figure13,
breakdown, table3, table4, shadow, sharing, energy, resilience, bench,
all.  ``--jobs N`` fans independent simulation cells out over N worker
processes (results are identical to a serial run); ``--json`` emits
machine-readable results instead of formatted tables.

``--metrics`` attaches the observability layer (:mod:`repro.obs`) to
every simulation cell and writes a run-provenance ``manifest.json``
(``--manifest-out`` overrides the path); ``--trace-out`` additionally
writes a Chrome-trace JSON timeline (open in ``chrome://tracing`` or
https://ui.perfetto.dev); ``--interval`` sets the counter-sampling
period in measured references.  ``stats`` pretty-prints or diffs the
manifests those runs produced (``--diff`` exits nonzero when the
manifests disagree beyond wall-clock noise).

``--profile`` additionally attaches the cycle-accounting profiler
(:mod:`repro.obs.profiler`) to every cell: per-walk cycle attribution,
hot-page heatmaps and folded stacks land in the manifest (implies
``--metrics``).  ``profile`` runs a single cell interactively and
renders the report directly -- see EXPERIMENTS.md and the Profiling
section of OBSERVABILITY.md.

``--store DIR`` (or ``$REPRO_STORE``) backs the sweep with the
content-addressed result store (:mod:`repro.store`): cells whose results
are already stored are served without simulation, and every freshly
computed cell is persisted the moment it completes.  ``--resume``
implies the store (at its default path when none is given) and
continues an interrupted sweep from the last durable cell;
``--no-store`` disables the store even when ``$REPRO_STORE`` is set.
Warm runs produce byte-identical reports and manifests to cold runs.
The ``store`` subcommand inspects and maintains a store directory --
see STORAGE.md.

``--fabric HOST:PORT`` dispatches the sweep's cell waves to a running
fabric coordinator (:mod:`repro.fabric`) instead of the in-process
worker pool; the coordinator leases cells to worker processes
(``fabric work``) that commit results into the *shared* store, so
``--fabric`` requires ``--store``/``$REPRO_STORE`` pointing at the same
directory the coordinator and workers use.  Distributed sweeps produce
byte-identical reports to serial ones.  ``--out FILE`` writes the
machine-readable result JSON to a file (exactly what ``--json`` prints,
without the surrounding progress text -- CI diffs these);
``--trace-cache-bytes N`` bounds the in-process trace cache (also
``$REPRO_TRACE_CACHE_BYTES``).  The ``fabric`` subcommand runs the
coordinator and workers -- see EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.experiments import (
    bench,
    breakdown,
    energy,
    figure01,
    figure11,
    figure12,
    figure13,
    profiling,
    report,
    resilience,
    shadow,
    sharing,
    stats,
    table3_fragmentation,
    table4_models,
)
from repro.obs import (
    DEFAULT_INTERVAL,
    ObsOptions,
    build_manifest,
    chrome_trace,
    write_manifest,
)
from repro.sched import Sweep, check_jobs
from repro.store import DEFAULT_STORE_PATH, ResultStore

#: name -> (runner(trace_length, jobs, obs, sweep, isa) -> result,
#: formatter -> str).  Runners without independent cells to fan out
#: ignore ``jobs``; runners without per-cell simulation runs ignore
#: ``obs``; runners without store-addressable cells ignore ``sweep``;
#: runners pinned to the paper's x86 testbed ignore ``isa``
#: (:data:`ISA_UNAWARE`).
EXPERIMENTS = {
    "figure1": (
        lambda length, jobs, obs, sweep, isa: figure01.run(
            trace_length=length, progress=True, jobs=jobs, obs=obs, sweep=sweep,
            isa=isa,
        ),
        figure01.format_figure,
    ),
    "figure11": (
        lambda length, jobs, obs, sweep, isa: figure11.run(
            trace_length=length, progress=True, jobs=jobs, obs=obs, sweep=sweep,
            isa=isa,
        ),
        figure11.format_figure,
    ),
    "figure12": (
        lambda length, jobs, obs, sweep, isa: figure12.run(
            trace_length=length, progress=True, jobs=jobs, obs=obs, sweep=sweep,
            isa=isa,
        ),
        figure12.format_figure,
    ),
    "figure13": (
        lambda length, jobs, obs, sweep, isa: figure13.run(
            trace_length=min(length, 40_000), progress=True, jobs=jobs,
            sweep=sweep, isa=isa,
        ),
        figure13.format_figure,
    ),
    "breakdown": (
        lambda length, jobs, obs, sweep, isa: breakdown.run(
            trace_length=length, progress=True, jobs=jobs, obs=obs, sweep=sweep,
            isa=isa,
        ),
        breakdown.format_breakdown,
    ),
    "table3": (
        lambda length, jobs, obs, sweep, isa: table3_fragmentation.run(
            progress=True
        ),
        table3_fragmentation.format_scenarios,
    ),
    "table4": (
        lambda length, jobs, obs, sweep, isa: table4_models.run(
            trace_length=length, progress=True, jobs=jobs, obs=obs, sweep=sweep,
            isa=isa,
        ),
        table4_models.format_comparison,
    ),
    "shadow": (
        lambda length, jobs, obs, sweep, isa: shadow.run(
            trace_length=length, progress=True
        ),
        shadow.format_comparison,
    ),
    "sharing": (
        lambda length, jobs, obs, sweep, isa: sharing.run(progress=True),
        sharing.format_study,
    ),
    "energy": (
        lambda length, jobs, obs, sweep, isa: energy.run(
            trace_length=length, progress=True
        ),
        energy.format_energy,
    ),
    "resilience": (
        lambda length, jobs, obs, sweep, isa: resilience.run(
            trace_length=min(length, 40_000), progress=True, obs=obs,
            sweep=sweep,
        ),
        resilience.format_resilience,
    ),
    "bench": (
        lambda length, jobs, obs, sweep, isa: bench.run(progress=True),
        bench.format_bench,
    ),
}

#: Experiments whose runner ignores ``obs`` (no per-cell simulation runs
#: to observe); requesting observability for them is not an error, but
#: the run will produce no records and no manifest.
OBS_UNAWARE = frozenset(
    {"figure13", "table3", "shadow", "sharing", "energy", "bench"}
)

#: Experiments with no store-addressable simulation cells (analytic
#: studies, or the bench whose whole point is measuring compute).
STORE_UNAWARE = frozenset({"table3", "shadow", "sharing", "energy", "bench"})

#: Experiments pinned to the paper's x86 testbed: analytic studies with
#: no simulated walks, the compute bench, and studies whose modelled
#: mechanism (shadow paging, page sharing, resilience waves) has no
#: ISA-dependent geometry yet.  ``--isa`` is ignored with a note.
ISA_UNAWARE = frozenset(
    {"table3", "shadow", "sharing", "energy", "bench", "resilience"}
)


def _out_path(base: Path, experiment: str, multi: bool) -> Path:
    """Output path for one experiment (suffixed when running several)."""
    if not multi:
        return base
    return base.with_name(f"{base.stem}.{experiment}{base.suffix or '.json'}")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stats":
        return stats.main(argv[1:])
    if argv and argv[0] == "profile":
        return profiling.main(argv[1:])
    if argv and argv[0] == "store":
        from repro.store import cli as store_cli

        return store_cli.main(argv[1:])
    if argv and argv[0] == "fabric":
        from repro.fabric import cli as fabric_cli

        return fabric_cli.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--trace-length",
        type=int,
        default=80_000,
        help="measured page visits per run (default 80000)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink traces for a fast smoke run",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="minimal traces for CI sanity checks (even shorter than --quick)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulation cells "
        "(default 1 = serial; results are identical either way)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of formatted tables",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="attach the observability layer and write a run manifest",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the cycle-accounting walk profiler to every cell "
        "(attribution books land in the manifest; implies --metrics)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a Chrome-trace JSON timeline of the run (implies --metrics)",
    )
    parser.add_argument(
        "--manifest-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="manifest path (default manifest.json; implies --metrics)",
    )
    parser.add_argument(
        "--interval",
        type=int,
        default=DEFAULT_INTERVAL,
        metavar="N",
        help=f"observability sampling period in measured references "
        f"(default {DEFAULT_INTERVAL})",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="back the sweep with a content-addressed result store at DIR "
        "(default $REPRO_STORE when set); stored cells skip simulation",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep from the last durable cell "
        f"(implies --store, default path {DEFAULT_STORE_PATH})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="never touch a result store, even when $REPRO_STORE is set",
    )
    parser.add_argument(
        "--fabric",
        default=None,
        metavar="HOST:PORT",
        help="dispatch cell waves to a running fabric coordinator "
        "(requires a store shared with its workers; results stay "
        "byte-identical to a local run)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the machine-readable result JSON to FILE "
        "(what --json prints, free of progress text)",
    )
    parser.add_argument(
        "--trace-cache-bytes",
        type=int,
        default=None,
        metavar="N",
        help="byte bound of the in-process trace cache "
        "(default $REPRO_TRACE_CACHE_BYTES or 256 MiB)",
    )
    parser.add_argument(
        "--isa",
        default="x86_64",
        metavar="NAME",
        help="translation geometry to sweep (x86_64, sv39, sv48, sv57; "
        "default x86_64 keeps the paper's testbed and its exact output)",
    )
    args = parser.parse_args(argv)
    from repro.errors import ConfigError as _ConfigError
    from repro.isa.geometry import get_geometry

    try:
        isa = get_geometry(args.isa).name
        check_jobs(args.jobs)
    except _ConfigError as exc:
        parser.error(str(exc))
    if args.no_store and (args.store is not None or args.resume):
        parser.error("--no-store conflicts with --store/--resume")
    if args.fabric is not None and args.no_store:
        parser.error("--fabric needs the shared store (conflicts with --no-store)")
    if args.trace_cache_bytes is not None:
        from repro.errors import ConfigError
        from repro.sim import trace_cache

        try:
            trace_cache.set_max_bytes(args.trace_cache_bytes)
        except ConfigError as exc:
            parser.error(str(exc))
    length = args.trace_length
    if args.quick:
        length = 20_000
    if args.smoke:
        length = 6_000

    obs = None
    if (
        args.metrics
        or args.profile
        or args.trace_out is not None
        or args.manifest_out is not None
    ):
        obs = ObsOptions(interval=args.interval, profile=args.profile)
    manifest_base = args.manifest_out or Path("manifest.json")

    store = None
    if not args.no_store:
        store_path = args.store
        if store_path is None and os.environ.get("REPRO_STORE"):
            store_path = Path(os.environ["REPRO_STORE"])
        if store_path is None and args.resume:
            store_path = Path(DEFAULT_STORE_PATH)
        if store_path is None and args.fabric is not None:
            store_path = Path(DEFAULT_STORE_PATH)
        if store_path is not None:
            store = ResultStore(store_path)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    multi = len(names) > 1
    for name in names:
        start = time.time()
        print(f"=== {name} ===", flush=True)
        runner, formatter = EXPERIMENTS[name]
        sweep = None
        if name not in STORE_UNAWARE:
            sweep = Sweep(name, store, resume=args.resume, fabric=args.fabric)
        elif args.fabric is not None:
            print(
                f"(fabric ignored: {name} has no store-addressable cells)",
                flush=True,
            )
        if isa != "x86_64" and name in ISA_UNAWARE:
            print(f"(--isa ignored: {name} is pinned to the x86 testbed)", flush=True)
        result = runner(length, args.jobs, obs, sweep, isa)
        elapsed = time.time() - start
        if args.json:
            print(report.dumps(result))
        else:
            print(formatter(result))
        if args.out is not None:
            out_path = _out_path(args.out, name, multi)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(report.dumps(result) + "\n")
            print(f"wrote result: {out_path}", flush=True)
        if obs is not None:
            _write_observability(
                name, result, args, argv, elapsed, multi, manifest_base,
                sweep=sweep,
            )
        if store is not None and name in STORE_UNAWARE:
            print(f"(no store support: {name} has no cacheable cells)", flush=True)
        elif store is not None:
            print(f"(store: {sweep.report.describe()})", flush=True)
        print(f"({elapsed:.1f}s)\n", flush=True)
    return 0


def _write_observability(
    name: str,
    result: object,
    args: argparse.Namespace,
    argv: list[str],
    elapsed: float,
    multi: bool,
    manifest_base: Path,
    sweep: object = None,
) -> None:
    """Emit the manifest (and optional Chrome trace) for one experiment."""
    records = stats.collect_observability(result)
    if not records:
        if name in OBS_UNAWARE:
            print(f"(no observability: {name} has no per-cell runs)", flush=True)
        return
    fabric = None
    if args.fabric is not None and name not in STORE_UNAWARE:
        fabric = {
            "coordinator": args.fabric,
            "events": list(getattr(sweep, "fabric_events", ())),
        }
    manifest = build_manifest(
        name,
        records,
        jobs=args.jobs,
        interval=args.interval,
        argv=argv,
        duration_seconds=elapsed,
        fabric=fabric,
    )
    path = write_manifest(manifest, _out_path(manifest_base, name, multi))
    print(f"wrote manifest: {path} ({len(records)} cells)", flush=True)
    if args.trace_out is not None:
        trace_path = _out_path(args.trace_out, name, multi)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(chrome_trace(records, name)) + "\n")
        print(f"wrote chrome trace: {trace_path}", flush=True)


if __name__ == "__main__":
    sys.exit(main())

"""``fabric`` subcommand: run and inspect the distributed sweep fabric.

Reached as ``python -m repro.experiments fabric <op>``::

    fabric serve  [--store DIR] [--port P]
                  [--lease-timeout S] [--max-attempts N]
    fabric work   --connect HOST:PORT [--store DIR] [--max-cells N]
                  [--max-leases N] [--trace-cache-bytes N] [--progress]
    fabric status --connect HOST:PORT [--json]

``serve`` runs a coordinator over the store until interrupted; ``work`` runs one worker
process against a coordinator; ``status`` prints the coordinator's
live state.  A minimal deployment is one ``serve``, N ``work``
processes sharing the store directory, and experiment invocations with
``--fabric HOST:PORT`` -- see EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

from repro.errors import ConfigError, FabricError, StoreError
from repro.store.store import DEFAULT_STORE_PATH, ResultStore


def _store_path(arg: str | None) -> Path:
    return Path(arg or os.environ.get("REPRO_STORE") or DEFAULT_STORE_PATH)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.fabric.coordinator import CoordinatorThread, FabricCoordinator

    store = ResultStore(_store_path(args.store))
    coordinator = FabricCoordinator(
        store=store,
        host=args.host,
        port=args.port,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
    )
    thread = CoordinatorThread(coordinator).start()
    print(
        f"fabric coordinator on {args.host}:{thread.port} "
        f"(store {store.root}, lease timeout {args.lease_timeout}s, "
        f"max attempts {args.max_attempts})",
        flush=True,
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        thread.stop()
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.fabric.worker import FabricWorker

    if args.trace_cache_bytes is not None:
        from repro.sim import trace_cache

        trace_cache.set_max_bytes(args.trace_cache_bytes)
    store = ResultStore(_store_path(args.store))
    worker = FabricWorker(
        args.connect,
        store,
        max_cells=args.max_cells,
        progress=args.progress,
    )
    done = worker.run(max_leases=args.max_leases)
    print(
        f"worker {worker.worker_id}: {done} cell(s) completed, "
        f"{worker.cells_failed} failed",
        flush=True,
    )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.fabric.client import FabricClient

    with FabricClient(args.connect) as client:
        status = client.status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    jobs = status.get("jobs", {})
    print(f"fabric coordinator at {args.connect}")
    print(
        f"  uptime {status.get('uptime_seconds', 0):.0f}s, "
        f"lease timeout {status.get('lease_timeout')}s, "
        f"max attempts {status.get('max_attempts')}"
    )
    print(
        f"  jobs: {jobs.get('queued', 0)} queued, {jobs.get('leased', 0)} "
        f"leased, {jobs.get('done', 0)} done, {jobs.get('failed', 0)} failed"
    )
    print(
        f"  {status.get('leases_active', 0)} active lease(s), "
        f"{status.get('batches_active', 0)} open batch(es), "
        f"{status.get('events_recorded', 0)} events recorded"
    )
    workers = status.get("workers") or []
    print(f"  {len(workers)} worker(s) connected")
    for worker in workers:
        print(
            f"    {worker['worker']} (host {worker['host'] or '?'}, "
            f"pid {worker['pid']}): {worker['cells_done']} cells done, "
            f"{worker['leases']} lease(s) held"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``fabric`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fabric",
        description="Run and inspect the distributed sweep fabric.",
    )
    sub = parser.add_subparsers(dest="op", required=True)

    serve = sub.add_parser("serve", help="run a coordinator")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help=f"shared store directory (default $REPRO_STORE "
                            f"or {DEFAULT_STORE_PATH})")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7463,
                       help="coordinator port (default 7463; 0 = ephemeral)")
    serve.add_argument("--lease-timeout", type=float, default=30.0,
                       metavar="S", help="seconds before an unheartbeated "
                                         "lease expires (default 30)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="grant budget per cell before it fails (default 3)")
    serve.set_defaults(func=_cmd_serve)

    work = sub.add_parser("work", help="run one lease-driven worker")
    work.add_argument("--connect", required=True, metavar="HOST:PORT",
                      help="coordinator address")
    work.add_argument("--store", default=None, metavar="DIR",
                      help="shared store directory (must match the "
                           "coordinator's)")
    work.add_argument("--max-cells", type=int, default=1, metavar="N",
                      help="cells requested per lease (default 1)")
    work.add_argument("--max-leases", type=int, default=None, metavar="N",
                      help="exit after N leases (default: run until the "
                           "coordinator goes away)")
    work.add_argument("--trace-cache-bytes", type=int, default=None,
                      metavar="N", help="trace-cache byte bound for this "
                                        "worker (default $REPRO_TRACE_CACHE_BYTES or 256 MiB)")
    work.add_argument("--progress", action="store_true",
                      help="print each cell as it runs")
    work.set_defaults(func=_cmd_work)

    status = sub.add_parser("status", help="query a running coordinator")
    status.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address")
    status.add_argument("--json", action="store_true",
                        help="machine-readable output")
    status.set_defaults(func=_cmd_status)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FabricError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())

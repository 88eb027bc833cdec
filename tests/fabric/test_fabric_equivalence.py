"""The fabric's acceptance bar: distributed == serial, byte for byte,
even when a worker is SIGKILLed mid-wave.

`tests/sched/test_warm_equivalence.py` proves warm == cold for local
sweeps (and extends to an in-process fabric); this module covers the
deployment-shaped cases: real subprocess workers and a kill -9
mid-lease.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.fabric.coordinator import CoordinatorThread, FabricCoordinator
from repro.fabric.worker import FabricWorker
from repro.sched import Sweep
from repro.store.store import ResultStore

from tests.fabric._slowcell import execute_slow, slow_ingredients

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_worker_process(port, store_root, extra_env=None):
    """A real `fabric work` subprocess (killable with SIGKILL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "fabric",
            "work",
            "--connect",
            f"127.0.0.1:{port}",
            "--store",
            str(store_root),
            "--max-cells",
            "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _coordinator(store, lease_timeout=5.0):
    return CoordinatorThread(
        FabricCoordinator(
            store=store, lease_timeout=lease_timeout, poll_interval=0.05
        )
    ).start()


def _sweep_in_thread(sweep, tasks):
    box = {}

    def go():
        try:
            box["results"] = sweep.run_tasks(
                tasks,
                execute_slow,
                slow_ingredients,
                label_for=lambda t: f"slow-{t[1]}",
            )
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            box["error"] = exc

    runner = threading.Thread(target=go, daemon=True)
    runner.start()
    return runner, box


def _poll_status(thread, predicate, timeout=30):
    async def probe():
        return thread.coordinator.status()

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = thread.call(probe())
        if predicate(status):
            return status
        time.sleep(0.02)
    raise AssertionError("coordinator never reached the expected state")


class TestSubprocessWorkers:
    def test_distributed_equals_local_with_two_worker_processes(
        self, tmp_path
    ):
        tasks = [(0.0, value) for value in range(6)]
        local_store = ResultStore(tmp_path / "local-store")
        local = Sweep("slow", local_store).run_tasks(
            tasks, execute_slow, slow_ingredients
        )

        store = ResultStore(tmp_path / "fabric-store")
        thread = _coordinator(store)
        workers = [
            _spawn_worker_process(thread.port, store.root) for _ in range(2)
        ]
        try:
            sweep = Sweep("slow", store, fabric=f"127.0.0.1:{thread.port}")
            distributed = sweep.run_tasks(
                tasks, execute_slow, slow_ingredients
            )
        finally:
            for worker in workers:
                worker.kill()
                worker.wait(timeout=10)
            thread.stop()
        assert distributed == local == [value * 3 for value in range(6)]
        assert sweep.report.computed == len(tasks)
        assert sweep.fabric_events, "lease lifecycle events must be reported"
        assert store.verify().clean

    def test_sweep_survives_worker_sigkilled_mid_lease(self, tmp_path):
        """kill -9 a worker holding a lease: the disconnect requeues its
        cell, a healthy worker finishes the wave, nothing is lost and
        nothing double-counts."""
        tasks = [(0.8, value) for value in range(4)]
        store = ResultStore(tmp_path / "store")
        thread = _coordinator(store, lease_timeout=3.0)
        doomed = _spawn_worker_process(thread.port, store.root)
        survivor = None
        try:
            sweep = Sweep("slow", store, fabric=f"127.0.0.1:{thread.port}")
            runner, box = _sweep_in_thread(sweep, tasks)
            _poll_status(thread, lambda s: s["jobs"]["leased"] >= 1)
            doomed.send_signal(signal.SIGKILL)
            doomed.wait(timeout=10)
            survivor = FabricWorker(f"127.0.0.1:{thread.port}", store)
            threading.Thread(target=survivor.run, daemon=True).start()
            runner.join(timeout=120)
            assert not runner.is_alive(), "sweep never finished after kill"
            assert "error" not in box, box.get("error")
            assert box["results"] == [value * 3 for value in range(4)]
            # Exactly one journalled completion per cell -- the killed
            # attempt never double-counts.
            assert sweep.report.computed == len(tasks)
            assert sweep.report.hits == 0

            async def probe():
                return thread.coordinator.metrics.snapshot()

            snapshot = thread.call(probe())
            assert snapshot["fabric.leases_expired"]["value"] >= 1
            expiries = [
                event
                for event in sweep.fabric_events
                if event["event"] == "lease-expire"
            ]
            assert expiries, "manifest events must include the lost lease"
        finally:
            if doomed.poll() is None:  # pragma: no cover - defensive
                doomed.kill()
            thread.stop()
        assert store.verify().clean

    def test_warm_rerun_is_all_hits_without_workers(self, tmp_path):
        """Once a fabric sweep populated the store, re-running needs no
        coordinator and no workers at all."""
        tasks = [(0.0, value) for value in range(3)]
        store = ResultStore(tmp_path / "store")
        thread = _coordinator(store)
        worker = _spawn_worker_process(thread.port, store.root)
        try:
            cold = Sweep("slow", store, fabric=f"127.0.0.1:{thread.port}")
            cold_results = cold.run_tasks(
                tasks, execute_slow, slow_ingredients
            )
        finally:
            worker.kill()
            worker.wait(timeout=10)
            thread.stop()
        warm = Sweep("slow", ResultStore(tmp_path / "store"))
        warm_results = warm.run_tasks(tasks, execute_slow, slow_ingredients)
        assert warm_results == cold_results
        assert warm.report.all_hits

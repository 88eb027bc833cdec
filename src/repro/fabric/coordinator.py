"""The fabric coordinator: leases cell waves to workers, loses nothing.

One asyncio process owns the work queue.  Submitters (the experiments
CLI running with ``--fabric``) hand it *jobs* --
content-addressed cells, each carrying the pickled ``(execute, task)``
blob a worker needs -- and workers pull bounded *leases* of jobs over
the length-prefixed JSON protocol (:mod:`repro.fabric.protocol`).

The correctness contract mirrors the store's: **a cell is never lost
and never double-counted**.

* Every lease has a deadline; worker heartbeats extend it.  A lease
  whose deadline passes -- or whose worker's connection drops, the
  fast path for a SIGKILLed worker -- has its unfinished jobs requeued
  immediately.
* Requeues are bounded: a job granted more than ``max_attempts`` times
  fails permanently and its submitters are told, instead of cycling
  forever through a poisoned cell.
* Results never cross the wire.  Workers commit finished cells to the
  shared content-addressed store (multi-writer safe: per-key atomic
  renames behind the write-ahead journal) and report only the key; a
  cell computed twice -- a requeued lease whose original worker was
  merely slow, not dead -- commits the *identical* entry, so duplicated
  execution is wasted time, never wrong results.

Observability: every lease lifecycle transition (grant, heartbeat,
expiry, requeue, completion, worker connect/disconnect) is recorded as
an event with a monotonic sequence number and mirrored into a
``fabric.*`` metrics registry; ``batch-done`` replies carry the events
so submitters can embed them in run manifests.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import FabricProtocolError
from repro.fabric.protocol import PROTOCOL_VERSION, read_msg, write_msg
from repro.obs.metrics import MetricsRegistry

#: Default seconds a lease stays valid without a heartbeat.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Default grant budget per job before it fails permanently.
DEFAULT_MAX_ATTEMPTS = 3

#: Lease lifecycle events kept in memory for status/manifests.
EVENT_CAP = 4096


@dataclass
class FabricJob:
    """One content-addressed cell the fabric owes somebody."""

    key: str
    blob: str
    ingredients: dict
    label: str = ""
    state: str = "queued"  # queued | leased | done | failed
    attempts: int = 0
    error: str = ""
    #: Batch ids to notify on completion/failure.
    batches: set[str] = field(default_factory=set)


@dataclass
class Lease:
    """One worker's claim on a set of jobs, valid until ``deadline``."""

    lease_id: str
    worker_id: str
    keys: set[str]
    deadline: float  # event-loop monotonic time
    heartbeats: int = 0


@dataclass
class _Batch:
    """One submitter's outstanding wave."""

    batch_id: str
    writer: Any
    remaining: set[str]
    failed: dict[str, str] = field(default_factory=dict)
    completed: int = 0
    start_seq: int = 0


@dataclass
class _Worker:
    """Connection-scoped worker bookkeeping."""

    worker_id: str
    host: str
    pid: int
    cells_done: int = 0
    leases: set[str] = field(default_factory=set)


class FabricCoordinator:
    """Asyncio server leasing fabric jobs to workers.

    ``store`` is optional but recommended: with a handle the reaper can
    recognise that a lost worker *did* commit a cell before dying (the
    entry exists) and mark the job done instead of re-executing it.
    """

    def __init__(
        self,
        store: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        metrics: MetricsRegistry | None = None,
        poll_interval: float = 0.2,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.poll_interval = poll_interval
        self.jobs: dict[str, FabricJob] = {}
        self.ready: deque[str] = deque()
        self.leases: dict[str, Lease] = {}
        self.batches: dict[str, _Batch] = {}
        self.workers: dict[str, _Worker] = {}
        self.events: deque[dict] = deque(maxlen=EVENT_CAP)
        self._seq = 0
        self._ids = 0
        self._server: asyncio.AbstractServer | None = None
        self._reaper: asyncio.Task | None = None
        self.started_at = time.time()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the server (resolving port 0) and start the reaper."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = asyncio.get_running_loop().create_task(self._reap_loop())
        self._record("coordinator-start", port=self.port)

    async def stop(self) -> None:
        """Stop accepting, cancel the reaper, drop server state."""
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._record("coordinator-stop")

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``fabric serve`` entry point)."""
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- event / metric plumbing ---------------------------------------

    def _record(self, event: str, **fields: Any) -> dict:
        self._seq += 1
        entry = {"seq": self._seq, "ts": time.time(), "event": event, **fields}
        self.events.append(entry)
        return entry

    def _next_id(self, prefix: str) -> str:
        self._ids += 1
        return f"{prefix}-{self._ids}"

    def _inc(self, name: str, amount: float = 1) -> None:
        self.metrics.inc(name, amount)

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        worker: _Worker | None = None
        try:
            while True:
                try:
                    message = await read_msg(reader)
                except FabricProtocolError:
                    break
                if message is None:
                    break
                op = message.get("op")
                if op == "hello":
                    worker = await self._on_hello(message, writer, worker)
                    if worker is False:  # version mismatch; hung up
                        return
                elif op == "lease-request":
                    await self._on_lease_request(message, writer)
                elif op == "heartbeat":
                    self._on_heartbeat(message)
                elif op == "cell-done":
                    await self._on_cell_done(message, worker)
                elif op == "cell-failed":
                    await self._on_cell_failed(message)
                elif op == "lease-complete":
                    self._on_lease_complete(message)
                elif op == "submit":
                    await self._on_submit(message, writer)
                elif op == "status":
                    await write_msg(writer, self.status())
                else:
                    await write_msg(
                        writer, {"op": "error", "error": f"unknown op {op!r}"}
                    )
        finally:
            if worker:
                await self._on_worker_lost(worker)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):  # pragma: no cover
                pass

    async def _on_hello(self, message: dict, writer, worker):
        version = message.get("version")
        if version != PROTOCOL_VERSION:
            await write_msg(
                writer,
                {
                    "op": "error",
                    "error": f"protocol version {version!r} != "
                    f"{PROTOCOL_VERSION}",
                },
            )
            return False
        role = message.get("role", "client")
        if role == "worker":
            worker = _Worker(
                worker_id=str(message.get("worker", self._next_id("worker"))),
                host=str(message.get("host", "")),
                pid=int(message.get("pid", 0)),
            )
            self.workers[worker.worker_id] = worker
            self._inc("fabric.workers_connected_total")
            self.metrics.set_gauge("fabric.workers_connected", len(self.workers))
            self._record(
                "worker-connect",
                worker=worker.worker_id,
                host=worker.host,
                pid=worker.pid,
            )
        await write_msg(
            writer, {"op": "hello-ok", "version": PROTOCOL_VERSION, "role": role}
        )
        return worker

    async def _on_worker_lost(self, worker: _Worker) -> None:
        self.workers.pop(worker.worker_id, None)
        self.metrics.set_gauge("fabric.workers_connected", len(self.workers))
        self._record("worker-disconnect", worker=worker.worker_id)
        # Fast path for a killed worker: its TCP close requeues every
        # unfinished job immediately, no need to wait out the deadline.
        for lease_id in sorted(worker.leases):
            lease = self.leases.get(lease_id)
            if lease is not None:
                await self._expire_lease(lease, reason="worker-lost")

    # -- worker ops -----------------------------------------------------

    async def _on_lease_request(self, message: dict, writer) -> None:
        worker_id = str(message.get("worker", ""))
        worker = self.workers.get(worker_id)
        max_cells = max(1, int(message.get("max_cells", 1)))
        granted: list[FabricJob] = []
        while self.ready and len(granted) < max_cells:
            job = self.jobs[self.ready.popleft()]
            if job.state != "queued":
                continue  # stale queue entry (completed while queued)
            job.state = "leased"
            job.attempts += 1
            granted.append(job)
        if not granted:
            await write_msg(
                writer, {"op": "idle", "retry_after": self.poll_interval}
            )
            return
        lease = Lease(
            lease_id=self._next_id("lease"),
            worker_id=worker_id,
            keys={job.key for job in granted},
            deadline=asyncio.get_running_loop().time() + self.lease_timeout,
        )
        self.leases[lease.lease_id] = lease
        if worker is not None:
            worker.leases.add(lease.lease_id)
        self._inc("fabric.leases_granted")
        self._inc("fabric.cells_leased", len(granted))
        self._record(
            "lease-grant",
            lease=lease.lease_id,
            worker=worker_id,
            cells=sorted(lease.keys),
        )
        await write_msg(
            writer,
            {
                "op": "lease",
                "lease": lease.lease_id,
                "timeout": self.lease_timeout,
                "jobs": [
                    {
                        "key": job.key,
                        "task": job.blob,
                        "ingredients": job.ingredients,
                        "label": job.label,
                    }
                    for job in granted
                ],
            },
        )

    def _on_heartbeat(self, message: dict) -> None:
        lease = self.leases.get(str(message.get("lease", "")))
        if lease is None:
            return  # expired already; the worker will learn via requeue
        lease.deadline = asyncio.get_running_loop().time() + self.lease_timeout
        lease.heartbeats += 1
        self._inc("fabric.heartbeats")

    async def _on_cell_done(
        self, message: dict, worker: _Worker | None
    ) -> None:
        key = str(message.get("key", ""))
        lease = self.leases.get(str(message.get("lease", "")))
        if lease is not None:
            lease.keys.discard(key)
        job = self.jobs.get(key)
        if job is None or job.state == "done":
            return  # duplicate completion (e.g. after a requeue): no-op
        if worker is not None:
            worker.cells_done += 1
        await self._complete_job(job, via=worker.worker_id if worker else "")

    async def _on_cell_failed(self, message: dict) -> None:
        key = str(message.get("key", ""))
        error = str(message.get("error", "unknown failure"))
        lease = self.leases.get(str(message.get("lease", "")))
        if lease is not None:
            lease.keys.discard(key)
        job = self.jobs.get(key)
        if job is None or job.state in ("done", "failed"):
            return
        await self._requeue_or_fail(job, error=error, cause="cell-failed")

    def _on_lease_complete(self, message: dict) -> None:
        lease = self.leases.pop(str(message.get("lease", "")), None)
        if lease is None:
            return
        worker = self.workers.get(lease.worker_id)
        if worker is not None:
            worker.leases.discard(lease.lease_id)
        self._inc("fabric.leases_completed")
        self._record(
            "lease-complete", lease=lease.lease_id, worker=lease.worker_id
        )

    # -- job state transitions -----------------------------------------

    async def _complete_job(self, job: FabricJob, via: str = "") -> None:
        job.state = "done"
        self._inc("fabric.cells_completed")
        self._record("cell-done", key=job.key, worker=via, label=job.label)
        await self._notify_batches(
            job, {"op": "cell-done", "key": job.key}
        )

    async def _requeue_or_fail(
        self, job: FabricJob, error: str, cause: str
    ) -> None:
        if job.attempts >= self.max_attempts:
            job.state = "failed"
            job.error = f"{cause} after {job.attempts} attempts: {error}"
            self._inc("fabric.cells_failed")
            self._record(
                "cell-failed", key=job.key, error=job.error, label=job.label
            )
            await self._notify_batches(
                job,
                {"op": "cell-failed", "key": job.key, "error": job.error},
                failed=True,
            )
            return
        job.state = "queued"
        self.ready.append(job.key)
        self._inc("fabric.cells_requeued")
        self._record(
            "cell-requeue",
            key=job.key,
            attempts=job.attempts,
            cause=cause,
            label=job.label,
        )

    async def _notify_batches(
        self, job: FabricJob, message: dict, failed: bool = False
    ) -> None:
        for batch_id in sorted(job.batches):
            batch = self.batches.get(batch_id)
            if batch is None or job.key not in batch.remaining:
                continue
            batch.remaining.discard(job.key)
            if failed:
                batch.failed[job.key] = job.error
            else:
                batch.completed += 1
            try:
                await write_msg(batch.writer, {**message, "batch": batch_id})
                if not batch.remaining:
                    await self._finish_batch(batch)
            except (OSError, ConnectionError):
                # Submitter went away; the jobs still complete into the
                # store, a re-submission will find them done.
                self.batches.pop(batch_id, None)

    async def _finish_batch(self, batch: _Batch) -> None:
        self.batches.pop(batch.batch_id, None)
        self._inc("fabric.batches_completed")
        events = [e for e in self.events if e["seq"] > batch.start_seq]
        await write_msg(
            batch.writer,
            {
                "op": "batch-done",
                "batch": batch.batch_id,
                "completed": batch.completed,
                "failed": batch.failed,
                "events": events,
            },
        )

    # -- submitter ops --------------------------------------------------

    async def _on_submit(self, message: dict, writer) -> None:
        batch = _Batch(
            batch_id=str(message.get("batch") or self._next_id("batch")),
            writer=writer,
            remaining=set(),
            start_seq=self._seq,
        )
        self._inc("fabric.batches_submitted")
        jobs = message.get("jobs") or []
        self._record("batch-submit", batch=batch.batch_id, cells=len(jobs))
        notify_now: list[dict] = []
        for spec in jobs:
            job = self._adopt_job(spec)
            if job.state == "done":
                notify_now.append({"op": "cell-done", "key": job.key})
            elif job.state == "failed":
                batch.failed[job.key] = job.error
                notify_now.append(
                    {"op": "cell-failed", "key": job.key, "error": job.error}
                )
            else:
                job.batches.add(batch.batch_id)
                batch.remaining.add(job.key)
        batch.completed = sum(1 for m in notify_now if m["op"] == "cell-done")
        self.batches[batch.batch_id] = batch
        for message_out in notify_now:
            await write_msg(writer, {**message_out, "batch": batch.batch_id})
        if not batch.remaining:
            await self._finish_batch(batch)

    def _adopt_job(self, spec: dict) -> FabricJob:
        """Register one submitted job, deduplicating by key."""
        key = str(spec.get("key", ""))
        existing = self.jobs.get(key)
        if existing is not None:
            self._inc("fabric.cells_deduped")
            return existing
        if self.store is not None and self.store.contains(key):
            # Someone already computed this (an earlier batch, another
            # client): done on arrival, no work enqueued.
            job = FabricJob(
                key=key,
                blob="",
                ingredients=spec.get("ingredients") or {},
                label=str(spec.get("label", "")),
                state="done",
            )
            self.jobs[key] = job
            self._inc("fabric.cells_deduped")
            return job
        job = FabricJob(
            key=key,
            blob=str(spec.get("task", "")),
            ingredients=spec.get("ingredients") or {},
            label=str(spec.get("label", "")),
        )
        self.jobs[key] = job
        self.ready.append(key)
        self._inc("fabric.cells_enqueued")
        return job

    # -- lease expiry ---------------------------------------------------

    async def _reap_loop(self) -> None:
        interval = max(0.05, self.lease_timeout / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for lease in [
                lease
                for lease in self.leases.values()
                if lease.deadline <= now
            ]:
                await self._expire_lease(lease, reason="deadline")

    async def _expire_lease(self, lease: Lease, reason: str) -> None:
        self.leases.pop(lease.lease_id, None)
        worker = self.workers.get(lease.worker_id)
        if worker is not None:
            worker.leases.discard(lease.lease_id)
        self._inc("fabric.leases_expired")
        self._record(
            "lease-expire",
            lease=lease.lease_id,
            worker=lease.worker_id,
            reason=reason,
            cells=sorted(lease.keys),
        )
        for key in sorted(lease.keys):
            job = self.jobs.get(key)
            if job is None or job.state != "leased":
                continue
            if self.store is not None and self.store.contains(key):
                # The worker committed before dying; adopt the result.
                await self._complete_job(job, via=lease.worker_id)
                continue
            await self._requeue_or_fail(
                job, error=f"lease {lease.lease_id} {reason}", cause=reason
            )

    # -- status ---------------------------------------------------------

    def status(self) -> dict:
        """The ``status-reply`` document."""
        states = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "op": "status-reply",
            "version": PROTOCOL_VERSION,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "port": self.port,
            "lease_timeout": self.lease_timeout,
            "max_attempts": self.max_attempts,
            "jobs": states,
            "leases_active": len(self.leases),
            "batches_active": len(self.batches),
            "workers": [
                {
                    "worker": worker.worker_id,
                    "host": worker.host,
                    "pid": worker.pid,
                    "cells_done": worker.cells_done,
                    "leases": len(worker.leases),
                }
                for worker in sorted(
                    self.workers.values(), key=lambda w: w.worker_id
                )
            ],
            "metrics": self.metrics.snapshot(),
            "events_recorded": self._seq,
        }


# ----------------------------------------------------------------------
# Thread embedding (tests, `fabric serve`)


class CoordinatorThread:
    """A coordinator running on its own event loop in a daemon thread.

    Lets synchronous code -- tests, the ``fabric serve`` command -- stand
    up a live coordinator and talk to it over real sockets.  ``submit``
    work by connecting a normal :class:`repro.fabric.client.FabricClient`
    to ``host:port``.
    """

    def __init__(self, coordinator: FabricCoordinator) -> None:
        self.coordinator = coordinator
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="fabric-coordinator", daemon=True
        )
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.coordinator.start())
        self._started.set()
        self.loop.run_forever()
        self.loop.run_until_complete(self.coordinator.stop())
        # Drain connection handlers for sockets still open at shutdown;
        # a coroutine left pending past loop.close() would only die at
        # garbage collection, with the loop gone under its finally.
        pending = [t for t in asyncio.all_tasks(self.loop) if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()

    def start(self) -> "CoordinatorThread":
        self._thread.start()
        if not self._started.wait(timeout=10):  # pragma: no cover
            raise RuntimeError("fabric coordinator failed to start")
        return self

    @property
    def port(self) -> int:
        return self.coordinator.port

    def call(self, coro):
        """Run a coroutine on the coordinator loop, return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    def stop(self) -> None:
        if self._thread.is_alive():
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=10)

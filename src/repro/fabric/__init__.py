"""repro.fabric: the distributed sweep fabric.

Many hosts, one content-addressed store.  An asyncio **coordinator**
(:mod:`repro.fabric.coordinator`) leases cell waves from
:mod:`repro.sched` DAGs to **workers** (:mod:`repro.fabric.worker`)
over a length-prefixed JSON protocol (:mod:`repro.fabric.protocol`)
with per-lease deadlines, heartbeats and expiry-driven requeue; workers
execute cells through the existing sweep machinery and commit results
to the shared :class:`~repro.store.ResultStore` (multi-writer safe), so
a killed worker never loses or duplicates a cell.

Experiments opt in with ``--fabric HOST:PORT``; :class:`repro.sched.Sweep`
then dispatches each dependency wave through a
:class:`~repro.fabric.client.FabricClient` instead of the in-process
worker pool, with byte-identical reports (proven by
``tests/fabric/test_fabric_equivalence.py`` alongside the warm/cold
equivalence suite).  See DESIGN.md ("Distributed sweep fabric") and
EXPERIMENTS.md for usage.
"""

from repro.fabric.client import FabricClient, parse_address
from repro.fabric.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_ATTEMPTS,
    CoordinatorThread,
    FabricCoordinator,
)
from repro.fabric.protocol import PROTOCOL_VERSION
from repro.fabric.worker import FabricWorker, worker_host

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
    "PROTOCOL_VERSION",
    "CoordinatorThread",
    "FabricClient",
    "FabricCoordinator",
    "FabricWorker",
    "parse_address",
    "worker_host",
]

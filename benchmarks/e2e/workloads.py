"""The benchmark's workloads: one pass each through a public entry point.

A pass is a fixed set of ``figure11.run`` / ``figure12.run`` calls; the
harness repeats passes, each in a fresh child process, for the run's
``--seconds`` and reports medians.  Every pass of a run does identical
work (the seed only picks the generated traces), so pass times are
samples of one distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``repro.workloads.registry``'s Figure 11 and Figure 12 axes, spelled
#: out so the parent harness runs without importing the program; the
#: committed digests pin every cell, so a drift here cannot go unseen.
BIG_MEMORY = ("graph500", "memcached", "npb-cg", "gups")
COMPUTE = ("cactusadm", "gemsfdtd", "mcf", "omnetpp", "canneal", "streamcluster")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one scale."""

    name: str
    #: ``repro.experiments`` module whose ``run`` is the entry point.
    experiment: str
    workloads: tuple[str, ...]
    configs: tuple[str, ...]
    trace_length: int
    #: 0: one storeless call per pass.  N > 0: one call through a fresh
    #: ``ResultStore`` (every cell computed and stored), then the same
    #: call N more times against the now-warm store.
    warm_calls: int = 0

    @property
    def cells(self) -> int:
        return len(self.workloads) * len(self.configs)

    def call_kwargs(self, seed: int) -> dict:
        return {
            "workloads": self.workloads,
            "configs": self.configs,
            "trace_length": self.trace_length,
            "seed": seed,
            "jobs": 1,
        }


FULL = {
    w.name: w
    for w in (
        Workload("boot-vmm", "figure11", ("graph500",), ("4K+VD",), 6_000),
        Workload(
            "walk-nested",
            "figure11",
            ("graph500", "gups"),
            ("4K+4K", "4K+2M", "2M+2M"),
            10_000,
        ),
        Workload("hit-large", "figure12", COMPUTE, ("1G", "1G+1G"), 250_000),
        Workload(
            "store-rerun",
            "figure11",
            BIG_MEMORY + COMPUTE,
            ("4K", "2M", "1G", "DS"),
            3_000,
            warm_calls=300,
        ),
    )
}

#: The same four shapes shrunk for the self-test (seconds, not minutes).
SMOKE = {
    w.name: w
    for w in (
        Workload("boot-vmm", "figure11", ("graph500",), ("DD",), 2_000),
        Workload("walk-nested", "figure11", ("gups",), ("4K+4K",), 4_000),
        Workload("hit-large", "figure12", ("cactusadm",), ("1G",), 50_000),
        Workload(
            "store-rerun",
            "figure11",
            ("graph500", "gups"),
            ("4K", "DS"),
            2_000,
            warm_calls=20,
        ),
    )
}

SCALES = {"full": FULL, "smoke": SMOKE}

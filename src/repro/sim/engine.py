"""Batched translation fast path.

:func:`repro.sim.simulator.run_trace` historically lowered the numpy
trace to a Python list and called ``mmu.access(va)`` once per reference;
for hit-dominated steady-state traces that spends almost all its time in
Python dict probes that never change anything except LRU recency.  This
module processes the trace in numpy chunks instead:

1. snapshot the resident (page-number, page-size) sets of the three L1
   TLBs;
2. bulk-classify a block of references against the snapshot with array
   operations (``np.isin``) -- a reference whose page is resident at some
   size is a guaranteed L1 hit, because L1 hits never insert or evict;
3. account the maximal all-hit prefix with array arithmetic (counter
   increments plus a per-distinct-tag LRU recency replay);
4. fall back to the scalar :meth:`repro.core.mmu.MMU.access` for the
   following miss run (mode fast paths, L2 probes, walks, replacements
   and insertions all live there, untouched), detecting the end of the
   run with cheap residency peeks;
5. invalidate the snapshot and repeat.

**Equivalence invariant**: after ``run(addresses)`` every observable --
``MMUCounters``, hierarchy hit/miss stats, TLB and page-walk-cache
contents *including LRU order*, page tables -- is bit-identical to the
scalar loop's.  The bulk path only handles references it has *proven*
are L1 hits against fresh state, accounts them exactly as ``lookup_l1``
would, and replays recency in last-use order; everything else runs
through the unmodified scalar path in original trace order.
``tests/sim/test_engine_equivalence.py`` asserts this across all
supported configuration labels.

The fault-injection / oracle paths never use this engine: injected
faults mutate translation state mid-trace at reference granularity, so
:func:`run_trace` keeps the scalar loop for them.

**Profiler neutrality**: the cycle-accounting profiler
(:mod:`repro.obs.profiler`) hooks only the walk paths, which the bulk
fast path never enters -- references it fast-paths are proven L1 hits
that cost zero modelled cycles and are recovered as event counts from
counter deltas at finalize.  Every L1 miss funnels through the scalar
:meth:`MMU.access` below, so a profiled batched run attributes exactly
the same cycles to exactly the same axes as a profiled scalar run.
"""

from __future__ import annotations

import numpy as np

from repro.core.address import PageSize
from repro.core.mmu import MMU

#: Initial references classified per vectorized step.  Grows toward
#: :data:`MAX_CHUNK` while classification keeps proving whole chunks
#: hit, shrinks back after every miss so a miss-heavy phase never pays
#: for classifying thousands of references it cannot fast-path.
MIN_CHUNK = 256

#: Upper bound on the adaptive chunk size.
MAX_CHUNK = 16384

#: Hit-prefix length below which a classification attempt is considered
#: wasted (the vectorized work outweighed the references it advanced);
#: consecutive wasted attempts trigger exponentially longer scalar
#: bursts so sustained miss-heavy phases degrade to ~pure scalar cost.
WASTED_PREFIX = 32

#: First scalar-burst length after a wasted classification attempt.
MIN_BURST = 64

class BatchedTranslationEngine:
    """Drives an address stream through an MMU, fast-pathing L1 hits.

    One engine instance wraps one MMU; it keeps no state between
    :meth:`run` calls beyond the wrapped references, so interleaving
    scalar ``mmu.access`` calls with engine runs is safe (the engine
    re-snapshots residency whenever state may have changed).
    """

    def __init__(self, mmu: MMU, block: int = MAX_CHUNK) -> None:
        if block <= 0:
            raise ValueError(f"block size must be positive, got {block}")
        self.mmu = mmu
        self.hierarchy = mmu.hierarchy
        self.max_chunk = block
        # Resolved once per run: disabled/absent registries collapse to
        # None so the per-chunk hooks stay a single identity check.
        metrics = getattr(mmu, "metrics", None)
        self._metrics = (
            metrics if metrics is not None and metrics.enabled else None
        )
        #: L1 probe order must match ``TLBHierarchy.lookup_l1`` exactly:
        #: the first size whose cache holds the page wins.
        self._sizes = list(self.hierarchy.l1)
        self._shifts = [size.bits - 12 for size in self._sizes]

    # ------------------------------------------------------------------

    def run(self, addresses: np.ndarray) -> None:
        """Translate every address, exactly like a scalar access loop."""
        n = int(addresses.size)
        if n == 0:
            return
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        vpns = addresses >> 12
        tag_arrays = [vpns >> shift for shift in self._shifts]

        pos = 0
        snapshot: list[np.ndarray] | None = None
        chunk = min(MIN_CHUNK, self.max_chunk)
        burst = MIN_BURST
        while pos < n:
            if snapshot is None:
                snapshot = self._snapshot()
            end = min(pos + chunk, n)
            masks = [
                np.isin(tags[pos:end], resident)
                for tags, resident in zip(tag_arrays, snapshot)
            ]
            hit_any = masks[0]
            for mask in masks[1:]:
                hit_any = hit_any | mask
            if hit_any.all():
                self._bulk_hits(pos, end, masks, tag_arrays)
                pos = end
                chunk = min(chunk * 4, self.max_chunk)
                continue  # snapshot still valid: hits change no residency
            miss_rel = int(np.argmax(~hit_any))
            if miss_rel:
                clipped = [mask[:miss_rel] for mask in masks]
                self._bulk_hits(pos, pos + miss_rel, clipped, tag_arrays)
                pos += miss_rel
            pos = self._scalar_miss_run(addresses, vpns, pos, n)
            if miss_rel < WASTED_PREFIX:
                # Classification barely advanced: the trace is in a
                # miss-heavy phase where vectorization cannot pay for
                # itself.  Run scalar for exponentially longer bursts,
                # re-probing the vector path between them.
                take = min(burst, n - pos)
                self._scalar_burst(addresses, pos, take)
                pos += take
                burst = min(burst * 2, self.max_chunk)
            else:
                burst = MIN_BURST
            snapshot = None  # misses inserted/evicted: re-snapshot
            chunk = min(MIN_CHUNK, self.max_chunk)

    # ------------------------------------------------------------------

    def _snapshot(self) -> list[np.ndarray]:
        """Resident tag arrays per L1, in probe order."""
        if self._metrics is not None:
            self._metrics.inc("engine.snapshots")
        residency = self.hierarchy.l1_residency()
        return [
            np.array(residency[size], dtype=np.int64)
            if residency[size]
            else np.empty(0, dtype=np.int64)
            for size in self._sizes
        ]

    def _bulk_hits(
        self,
        start: int,
        end: int,
        masks: list[np.ndarray],
        tag_arrays: list[np.ndarray],
    ) -> None:
        """Account ``[start, end)`` -- all proven L1 hits -- in bulk."""
        total = end - start
        counters = self.mmu.counters
        counters.accesses += total
        counters.l1_hits += total
        if self._metrics is not None:
            self._metrics.observe("engine.batch_chunk_refs", total)
            self._metrics.inc("engine.bulk_hit_refs", total)

        counts: dict[PageSize, int] = {}
        claimed: np.ndarray | None = None
        for size, mask, tags in zip(self._sizes, masks, tag_arrays):
            # Probe priority: a page resident at an earlier size claims
            # the hit (mirrors lookup_l1's first-match return).
            if claimed is not None:
                mask = mask & ~claimed
                claimed = claimed | mask
            else:
                claimed = mask.copy()
            count = int(mask.sum())
            counts[size] = count
            if count:
                self._replay_recency(size, tags[start:end][mask])
        self.hierarchy.bulk_account_l1_hits(counts)

    def _replay_recency(self, size: PageSize, hit_tags: np.ndarray) -> None:
        """Reproduce the LRU effect of scalar hits on one L1 cache.

        A run of hits leaves each distinct tag at the recency position
        of its *last* hit; touching distinct tags in ascending order of
        last occurrence recreates that order with O(distinct) work.
        """
        cache = self.hierarchy.l1[size]
        reversed_tags = hit_tags[::-1]
        unique, first_rev_index = np.unique(reversed_tags, return_index=True)
        if unique.size == 1:
            cache.touch_mru(int(unique[0]))
            return
        # Last occurrence in original order == first in reversed order;
        # ascending last-occurrence == descending reversed index.
        for tag in unique[np.argsort(-first_rev_index, kind="stable")]:
            cache.touch_mru(int(tag))

    def _scalar_miss_run(
        self, addresses: np.ndarray, vpns: np.ndarray, pos: int, n: int
    ) -> int:
        """Scalar-process references until the next guaranteed L1 hit.

        The reference at ``pos`` is a known miss; subsequent references
        stay on the scalar path until a residency peek (no stats, no
        recency) proves the next one would hit L1 again.
        """
        access = self.mmu.access
        l1_items = list(zip(self._shifts, self.hierarchy.l1.values()))
        while pos < n:
            access(int(addresses[pos]))
            pos += 1
            if pos < n:
                vpn = int(vpns[pos])
                for shift, cache in l1_items:
                    if cache.peek(vpn >> shift) is not None:
                        return pos
        return pos

    def _scalar_burst(self, addresses: np.ndarray, pos: int, take: int) -> None:
        """Plain scalar processing of ``take`` references -- no peeks.

        Used in miss-heavy phases: residency peeks between references
        would cost more than they save, and the scalar path is exact by
        definition.
        """
        access = self.mmu.access
        for va in addresses[pos : pos + take].tolist():
            access(va)


def access_batch(mmu: MMU, addresses: np.ndarray, block: int = MAX_CHUNK) -> None:
    """Convenience wrapper: one-shot batched translation of a stream."""
    BatchedTranslationEngine(mmu, block=block).run(addresses)

"""Process-wide memoization of generated workload traces.

A sweep simulates the same (workload, trace length, seed) cell under a
dozen configurations; regenerating the identical trace -- and re-running
``np.unique`` over it for prepopulation -- for every configuration is
pure waste.  This cache generates each trace once, computes its unique
page set once, marks both arrays read-only, and shares them across every
config of the sweep.

The cache is per process: a pooled or fabric sweep's workers each
generate the traces their cells need on first use, and never pickle
trace arrays across the process boundary.

Keys include the workload class, name and footprint because test
workloads (e.g. ``TinyWorkload``) reuse one name across different
footprints, and the footprint changes the generated trace.

Residency is bounded two ways -- by entry count (:data:`MAX_ENTRIES`)
and by total array bytes (:data:`MAX_BYTES`) -- with least-recently-used
eviction: a hit refreshes its entry, inserts evict from the cold end
until both bounds hold.  The most recent entry is never evicted, even
when it alone exceeds the byte bound (the caller needs it regardless).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.workloads.base import Workload

#: Cached traces before the least-recently-used entries are discarded.
#: A full figure sweep needs one entry per workload; the bound only
#: matters for long-lived processes sweeping many lengths/seeds.
MAX_ENTRIES = 32

#: Built-in byte bound: 256 MiB holds every default-length trace of a
#: full figure sweep with room to spare while keeping a long-lived
#: sweep process bounded.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Environment override for the byte bound (fabric workers co-located
#: on one host shrink it; a beefy sweep box can raise it).
MAX_BYTES_ENV = "REPRO_TRACE_CACHE_BYTES"


def _max_bytes_from_env() -> int:
    raw = os.environ.get(MAX_BYTES_ENV)
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{MAX_BYTES_ENV}={raw!r} is not an integer byte count"
        ) from None
    if value <= 0:
        raise ConfigError(f"{MAX_BYTES_ENV} must be positive, got {value}")
    return value


#: Total bytes of cached trace arrays before LRU eviction kicks in
#: (``REPRO_TRACE_CACHE_BYTES`` in the environment, the
#: ``--trace-cache-bytes`` CLI flag via :func:`set_max_bytes`, or
#: :data:`DEFAULT_MAX_BYTES`).  Read at every eviction, so tests may
#: monkeypatch it directly.
MAX_BYTES = _max_bytes_from_env()


def set_max_bytes(value: int) -> None:
    """Rebind the byte bound and evict immediately if it shrank."""
    global MAX_BYTES
    if value <= 0:
        raise ConfigError(
            f"trace-cache byte bound must be positive, got {value}"
        )
    MAX_BYTES = value
    _evict(_METRICS)

#: (class qualname, workload name, footprint, requested length, seed,
#: ISA geometry name).
TraceKey = tuple[str, str, int, int | None, int, str]


@dataclass(frozen=True)
class CachedTrace:
    """One generated trace plus its derived unique-page array."""

    #: Page indices relative to the workload arena (read-only int64).
    pages: np.ndarray
    #: Sorted unique page indices (read-only; feeds prepopulation).
    unique_pages: np.ndarray

    @property
    def nbytes(self) -> int:
        """Resident bytes this entry pins (both arrays)."""
        return int(self.pages.nbytes) + int(self.unique_pages.nbytes)


@dataclass
class CacheStats:
    """Lifetime hit/miss/eviction counts of the process-wide cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Total bytes released by evictions (lifetime).
    evicted_bytes: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "hit_rate": round(self.hit_rate, 4),
        }


_CACHE: dict[TraceKey, CachedTrace] = {}
_STATS = CacheStats()

#: Optional :class:`repro.obs.metrics.MetricsRegistry` mirror.  The cache
#: is process-wide, so attachment is explicit rather than per-run; each
#: request bumps ``trace_cache.hits`` / ``trace_cache.misses`` there too.
_METRICS = None


def stats() -> CacheStats:
    """The live counter object (read it, or ``reset()`` it in tests)."""
    return _STATS


def attach_metrics(registry) -> None:
    """Mirror cache activity into a metrics registry (None detaches)."""
    global _METRICS
    _METRICS = registry


def trace_key(
    workload: Workload, length: int | None, seed: int, isa: str = "x86_64"
) -> TraceKey:
    """Cache key for one (workload, length, seed, isa) trace request.

    Traces are page indices relative to the arena, so today they do not
    vary with the ISA -- but the key carries the geometry name anyway so
    an x86 cell and an Sv48 cell can never alias, even once a geometry
    influences generation (e.g. canonicality-clamped generators).
    """
    spec = workload.spec
    return (
        type(workload).__qualname__,
        spec.name,
        spec.footprint_bytes,
        length,
        seed,
        isa,
    )


def get_trace(
    workload: Workload, length: int | None, seed: int, isa: str = "x86_64"
) -> CachedTrace:
    """The memoized trace for a request, generating it on first use.

    Hits refresh the entry's recency (dict insertion order doubles as
    the LRU list); misses insert at the hot end and evict from the cold
    end until both :data:`MAX_ENTRIES` and :data:`MAX_BYTES` hold.
    """
    key = trace_key(workload, length, seed, isa)
    cached = _CACHE.get(key)
    m = _METRICS
    if cached is not None:
        _STATS.hits += 1
        if m is not None and m.enabled:
            m.inc("trace_cache.hits")
        _CACHE[key] = _CACHE.pop(key)  # move to the hot (most-recent) end
        return cached
    _STATS.misses += 1
    if m is not None and m.enabled:
        m.inc("trace_cache.misses")
    pages = np.ascontiguousarray(workload.trace(length, seed=seed), dtype=np.int64)
    unique_pages = np.unique(pages)
    pages.flags.writeable = False
    unique_pages.flags.writeable = False
    cached = CachedTrace(pages=pages, unique_pages=unique_pages)
    _CACHE[key] = cached
    _evict(m)
    return cached


def _evict(m) -> None:
    """Drop least-recently-used entries until both bounds hold."""
    while len(_CACHE) > 1 and (
        len(_CACHE) > MAX_ENTRIES or cache_bytes() > MAX_BYTES
    ):
        victim = _CACHE.pop(next(iter(_CACHE)))
        _STATS.evictions += 1
        _STATS.evicted_bytes += victim.nbytes
        if m is not None and m.enabled:
            m.inc("trace_cache.evictions")
            m.inc("trace_cache.evicted_bytes", victim.nbytes)


def clear() -> None:
    """Drop every cached trace (tests; memory pressure)."""
    _CACHE.clear()


def cache_size() -> int:
    """Number of traces currently cached."""
    return len(_CACHE)


def cache_bytes() -> int:
    """Total resident bytes of every cached trace."""
    return sum(entry.nbytes for entry in _CACHE.values())

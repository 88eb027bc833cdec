"""Outside-in layer tracing.

The simulator has no wall-clock spans of its own, so a traced pass wraps
public functions from outside -- at the names their callers look up --
records a span per call, and restores every original afterwards.  Only
the names in :data:`TARGETS` are touched.  ``MMU.access`` runs once per
scalar-path reference, so it gets no span of its own: its calls are
folded into the enclosing warm-up/measure span as (count, seconds).

A target that no longer exists is skipped and named in
:attr:`Tracer.missing`; the metrics it feeds come out as ``None``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import weakref
from contextlib import contextmanager
from time import perf_counter

#: (span name, module, attribute path) -- the module is the one whose
#: callers resolve the name at call time, so wrapping it there is seen.
TARGETS = (
    ("cell", "repro.experiments.parallel", "simulate"),
    ("trace", "repro.sim.trace_cache", "get_trace"),
    ("boot", "repro.sim.simulator", "build_system"),
    ("boot.io_gap", "repro.sim.system", "reclaim_io_gap"),
    ("boot.unplug", "repro.vmm.hypervisor", "VirtualMachine.shrink_below_gap_slot"),
    ("populate", "repro.sim.simulator", "populate_for_addresses"),
    ("populate.nested", "repro.vmm.hypervisor", "VirtualMachine.populate_nested"),
    ("translate", "repro.core.mmu", "MMU.access_batch"),
    ("access", "repro.core.mmu", "MMU.access"),
    ("store.get", "repro.store.store", "ResultStore.get"),
    ("store.put", "repro.store.store", "ResultStore.put"),
)

#: Span name -> the layer its self time is charged to.  ``call`` is the
#: harness's own span around one entry-point call.
LAYER_OF = {
    "call": "dispatch",
    "cell": "cell",
    "trace": "trace",
    "boot": "boot",
    "boot.io_gap": "boot",
    "boot.unplug": "boot",
    "populate": "populate",
    "populate.nested": "populate",
    "warmup": "translate",
    "measure": "translate",
    "store.get": "store",
    "store.put": "store",
}

LAYERS = ("trace", "boot", "populate", "translate", "cell", "store", "dispatch")

#: Per-layer metrics (name -> unit), in BENCHMARK.json order.
METRICS = {
    "trace.s": "s",
    "trace.generated": "count",
    "trace.hit_rate": "ratio",
    "boot.s": "s",
    "boot.systems": "count",
    "boot.io_gap_s": "s",
    "boot.unplug_s": "s",
    "boot.rest_s": "s",
    "populate.s": "s",
    "populate.nested_s": "s",
    "populate.pages": "count",
    "warmup.s": "s",
    "measure.s": "s",
    "measure.miss_s": "s",
    "measure.bulk_s": "s",
    "translate.refs": "count",
    "translate.scalar_refs": "count",
    "translate.bulk_share": "ratio",
    "translate.walks": "count",
    "translate.us_per_miss": "us",
    "cell.s": "s",
    "cell.p50_s": "s",
    "cell.max_s": "s",
    "cell.other_s": "s",
    "store.get_s": "s",
    "store.gets": "count",
    "store.put_s": "s",
    "store.puts": "count",
    "store.hit_rate": "ratio",
    "dispatch.s": "s",
    "call_p90_ms": "ms",
    "rerun.store_share": "ratio",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace_overhead_frac": "ratio",
}

#: Metrics each target feeds (a missing target turns them into None).
_FED_BY = {
    "cell": ("cell.s", "cell.p50_s", "cell.max_s", "cell.other_s", "cell.share"),
    "trace": ("trace.s", "trace.generated", "trace.hit_rate", "trace.share"),
    "boot": ("boot.s", "boot.systems", "boot.rest_s", "boot.share"),
    "boot.io_gap": ("boot.io_gap_s", "boot.rest_s"),
    "boot.unplug": ("boot.unplug_s",),
    "populate": ("populate.s", "populate.pages", "populate.share"),
    "populate.nested": ("populate.nested_s",),
    "translate": (
        "warmup.s", "measure.s", "measure.bulk_s", "translate.refs",
        "translate.bulk_share", "translate.walks", "translate.share",
    ),
    "access": (
        "measure.miss_s", "measure.bulk_s", "translate.scalar_refs",
        "translate.bulk_share", "translate.us_per_miss",
    ),
    "store.get": ("store.get_s", "store.gets", "store.hit_rate", "store.share"),
    "store.put": ("store.put_s", "store.puts", "store.share"),
}


class Span:
    """One timed call: name, interval, parent index, cell id, counts."""

    __slots__ = ("name", "start", "end", "parent", "cell", "extra")

    def __init__(self, name: str, parent: int | None, cell: str | None) -> None:
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.cell = cell
        self.extra = {}

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.cell, self.extra]


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._warmed = weakref.WeakSet()
        # Folded MMU.access calls of the innermost translate span.
        self._access_n = 0
        self._access_s = 0.0

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, cell: str | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent].cell
        span = Span(name, parent, cell)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, original):
        if name == "access":
            return self._wrap_access(original)
        if name == "translate":
            return self._wrap_translate(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cell = None
            if name == "cell":
                config = args[0] if args else kwargs["config_label"]
                workload = args[1] if len(args) > 1 else kwargs["workload"]
                cell = f"{workload.spec.name}/{config}"
            span = tracer.begin(name, cell)
            before = _trace_misses() if name == "trace" else 0
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if name == "trace":
                span.extra["generated"] = _trace_misses() - before
            elif name == "populate":
                span.extra["pages"] = len(args[1])
            elif name == "store.get":
                span.extra["hit"] = result is not None
            return result

        return wrapper

    def _wrap_translate(self, original):
        tracer = self

        @functools.wraps(original)
        def access_batch(mmu, addresses):
            # The first batch an MMU sees is the warm-up prefix; the
            # simulator resets counters after it and measures the rest.
            warm = mmu not in tracer._warmed
            tracer._warmed.add(mmu)
            counters = mmu.counters
            walks, misses = counters.walks, counters.l1_misses
            saved = tracer._access_n, tracer._access_s
            tracer._access_n, tracer._access_s = 0, 0.0
            span = tracer.begin("warmup" if warm else "measure")
            try:
                original(mmu, addresses)
            finally:
                tracer.end(span)
                span.extra.update(
                    refs=len(addresses),
                    access_n=tracer._access_n,
                    access_s=tracer._access_s,
                    walks=mmu.counters.walks - walks,
                    l1_misses=mmu.counters.l1_misses - misses,
                )
                tracer._access_n, tracer._access_s = saved

        return access_batch

    def _wrap_access(self, original):
        tracer = self

        @functools.wraps(original)
        def access(mmu, vaddr):
            start = perf_counter()
            try:
                return original(mmu, vaddr)
            finally:
                tracer._access_s += perf_counter() - start
                tracer._access_n += 1

        return access

    @contextmanager
    def installed(self):
        """Wrap every reachable target; restore all originals on exit."""
        restore = []
        try:
            for name, module, path in TARGETS:
                resolved = resolve(module, path)
                if resolved is None:
                    self.missing.append(f"{module}:{path}")
                    continue
                owner, attr, original, own = resolved
                setattr(owner, attr, self._wrap(name, original))
                restore.append((owner, attr, original, own))
            yield self
        finally:
            for owner, attr, original, own in reversed(restore):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def unmeasured(missing: list[str]) -> set[str]:
    """Metrics fed by any of the ``module:attribute`` targets in ``missing``."""
    return {
        metric
        for name, module, path in TARGETS
        if f"{module}:{path}" in missing
        for metric in _FED_BY[name]
    }


def _trace_misses() -> int:
    from repro.sim import trace_cache

    return trace_cache.stats().misses


def resolve(module: str, path: str):
    """(owner, attribute, current value, owner defines it) or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    own = not isinstance(owner, type) or attr in vars(owner)
    return owner, attr, original, own


# ----------------------------------------------------------------------
# From spans to metrics


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_seconds(spans: list[list]) -> dict[str, float]:
    """Self time per layer; sums to the total of the ``call`` spans."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        out[LAYER_OF[span[0]]] += own
    return out


def pass_metrics(spans: list[list], missing: set[str] = frozenset()) -> dict:
    """Per-layer metrics of one traced pass (``trace_overhead_frac`` aside)."""
    own = self_times(spans)
    dur: dict[str, list[float]] = {}
    extra: dict[str, list[dict]] = {}
    for name, start, end, _, _, more in spans:
        dur.setdefault(name, []).append(end - start)
        extra.setdefault(name, []).append(more)

    def total(name):
        return sum(dur.get(name, ()))

    def count(name, key):
        return sum(e[key] for e in extra.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    calls = dur.get("call", [])
    sweep = sum(calls)
    layers = layer_seconds(spans)
    cells = dur.get("cell", [])
    traces = len(dur.get("trace", ()))
    generated = count("trace", "generated")
    refs = count("measure", "refs")
    scalar = count("measure", "access_n")
    miss_s = count("measure", "access_s")
    gets = extra.get("store.get", [])

    # Warm reruns: every call after a pass's first one.  Calls are the
    # only root spans, so a span is warm unless its root is span 0.
    root = []
    for index, span in enumerate(spans):
        root.append(index if span[3] is None else root[span[3]])
    warm_store = sum(
        seconds
        for span, seconds, top in zip(spans, own, root)
        if top != 0 and LAYER_OF[span[0]] == "store"
    )

    metrics = {
        "trace.s": total("trace"),
        "trace.generated": generated,
        "trace.hit_rate": ratio(traces - generated, traces),
        "boot.s": total("boot"),
        "boot.systems": len(dur.get("boot", ())),
        "boot.io_gap_s": total("boot.io_gap"),
        "boot.unplug_s": total("boot.unplug"),
        "boot.rest_s": total("boot") - total("boot.io_gap"),
        "populate.s": total("populate"),
        "populate.nested_s": total("populate.nested"),
        "populate.pages": count("populate", "pages"),
        "warmup.s": total("warmup"),
        "measure.s": total("measure"),
        "measure.miss_s": miss_s,
        "measure.bulk_s": total("measure") - miss_s,
        "translate.refs": refs,
        "translate.scalar_refs": scalar,
        "translate.bulk_share": ratio(refs - scalar, refs),
        "translate.walks": count("measure", "walks"),
        "translate.us_per_miss": 1e6 * ratio(miss_s, count("measure", "l1_misses")),
        "cell.s": sum(cells),
        "cell.p50_s": statistics.median(cells) if cells else 0.0,
        "cell.max_s": max(cells, default=0.0),
        "cell.other_s": layers["cell"],
        "store.get_s": total("store.get"),
        "store.gets": len(gets),
        "store.put_s": total("store.put"),
        "store.puts": len(dur.get("store.put", ())),
        "store.hit_rate": ratio(sum(e["hit"] for e in gets), len(gets)),
        "dispatch.s": layers["dispatch"],
        "call_p90_ms": 1e3 * percentile(calls, 0.9),
        "rerun.store_share": ratio(warm_store, sum(calls[1:])),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = ratio(layers[layer], sweep)
    for name in missing:
        metrics[name] = None
    return metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def chrome_events(spans: list[list], lane: int) -> list[dict]:
    """Chrome-trace complete events for one pass, on thread ``lane``."""
    if not spans:
        return []
    origin = min(span[1] for span in spans)
    events = []
    for name, start, end, _, cell, more in spans:
        args = dict(more)
        if cell is not None:
            args["cell"] = cell
        events.append(
            {
                "name": name,
                "cat": LAYER_OF[name],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": lane,
                "args": args,
            }
        )
    return events

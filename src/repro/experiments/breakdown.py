"""Section IX.A's performance breakdown, plus Section VIII observations.

Three analyses on the same set of runs:

1. **TLB-miss inflation** -- virtualization increases miss counts
   (nested entries share the L2 TLB): the paper reports 1.38x for
   graph500, 1.62x for memcached, 1.41x for GUPS, 1.33x for canneal,
   1.29x for streamcluster.
2. **Cycles-per-miss growth** -- Cv/Cn averages 2.4x, 1.5x and 1.6x for
   4K+4K, 4K+2M and 4K+1G (up to 3.5x for NPB:CG).
3. **New-mode per-miss costs** -- VMM Direct within ~13% and Guest
   Direct within ~3% of native cycles-per-miss; Dual Direct removes
   ~99.9% of L2 TLB misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    format_table,
    isa_configs,
    run_grid,
)
from repro.model.overhead import geometric_mean

DEFAULT_WORKLOADS = ("graph500", "memcached", "gups", "canneal", "streamcluster")


@dataclass
class WorkloadBreakdown:
    """Per-workload breakdown metrics."""

    workload: str
    miss_inflation_4k4k: float
    cv_over_cn: dict[str, float]  # per virtualized config
    vd_per_miss_vs_native: float  # (C_vd / C_n) - 1
    gd_per_miss_vs_native: float
    dd_l2_miss_reduction: float  # fraction of L2 misses removed


@dataclass
class BreakdownResult:
    """All workloads' breakdowns plus the cross-workload means."""

    rows: list[WorkloadBreakdown]
    #: Per-cell observability records (empty unless run with ``obs``).
    obs_records: tuple = ()

    def mean_cv_over_cn(self, config: str) -> float:
        """Geometric-mean cycles-per-miss growth for one config."""
        return geometric_mean([r.cv_over_cn[config] for r in self.rows])


VIRT_CONFIGS = ("4K+4K", "4K+2M", "4K+1G")


def run(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    seed: int = 0,
    progress: bool = False,
    jobs: int = 1,
    obs=None,
    sweep=None,
    isa: str = "x86_64",
) -> BreakdownResult:
    """Measure the Section IX.A quantities for each workload."""
    bare = ("4K",) + VIRT_CONFIGS + ("4K+VD", "4K+GD", "DD")
    configs = isa_configs(bare, isa)
    label = dict(zip(bare, configs))
    grid = run_grid(
        workloads,
        configs,
        trace_length=trace_length,
        seed=seed,
        progress=progress,
        jobs=jobs,
        obs=obs,
        sweep=sweep,
    )
    rows = []
    for name in workloads:
        native = grid.get(name, label["4K"])
        virt = {cfg: grid.get(name, label[cfg]) for cfg in VIRT_CONFIGS}
        vd = grid.get(name, label["4K+VD"])
        gd = grid.get(name, label["4K+GD"])
        dd = grid.get(name, label["DD"])

        cn = native.run.cycles_per_walk
        base_l2_misses = virt["4K+4K"].l2_tlb_misses
        rows.append(
            WorkloadBreakdown(
                workload=name,
                miss_inflation_4k4k=(
                    virt["4K+4K"].run.walks / native.run.walks
                    if native.run.walks
                    else 1.0
                ),
                cv_over_cn={
                    cfg: (virt[cfg].run.cycles_per_walk / cn if cn else 0.0)
                    for cfg in VIRT_CONFIGS
                },
                vd_per_miss_vs_native=(vd.run.cycles_per_walk / cn - 1.0) if cn else 0.0,
                gd_per_miss_vs_native=(gd.run.cycles_per_walk / cn - 1.0) if cn else 0.0,
                dd_l2_miss_reduction=(
                    1.0 - dd.l2_tlb_misses / base_l2_misses if base_l2_misses else 0.0
                ),
            )
        )
    return BreakdownResult(rows=rows, obs_records=tuple(grid.observability()))


def format_breakdown(result: BreakdownResult) -> str:
    """Render the three analyses as one table."""
    headers = [
        "workload",
        "miss x (4K+4K)",
        "Cv/Cn 4K+4K",
        "Cv/Cn 4K+2M",
        "Cv/Cn 4K+1G",
        "VD per-miss vs native",
        "GD per-miss vs native",
        "DD L2-miss reduction",
    ]
    rows = []
    for r in result.rows:
        rows.append(
            [
                r.workload,
                f"{r.miss_inflation_4k4k:.2f}x",
                f"{r.cv_over_cn['4K+4K']:.2f}x",
                f"{r.cv_over_cn['4K+2M']:.2f}x",
                f"{r.cv_over_cn['4K+1G']:.2f}x",
                f"{100 * r.vd_per_miss_vs_native:+.1f}%",
                f"{100 * r.gd_per_miss_vs_native:+.1f}%",
                f"{100 * r.dd_l2_miss_reduction:.1f}%",
            ]
        )
    rows.append(
        [
            "geo-mean",
            "",
            f"{result.mean_cv_over_cn('4K+4K'):.2f}x",
            f"{result.mean_cv_over_cn('4K+2M'):.2f}x",
            f"{result.mean_cv_over_cn('4K+1G'):.2f}x",
            "",
            "",
            "",
        ]
    )
    return format_table(
        headers, rows, title="Section IX.A performance breakdown"
    )

"""Table IV cross-check: linear models vs direct simulation.

Section VII predicts each design's walk cycles from native/virtualized
measurements plus BadgerTrap miss classification.  Our simulator can
also run the proposed hardware directly, so this experiment applies the
paper's exact linear models and compares them against the directly-
simulated walk cycles -- validating that the methodology and the
hardware model agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    DEFAULT_TRACE_LENGTH,
    format_table,
    isa_configs,
    run_grid,
)
from repro.model.counters import model_inputs
from repro.model.linear_model import (
    direct_segment_cycles,
    dual_direct_cycles,
    guest_direct_cycles,
    vmm_direct_cycles,
)

DEFAULT_WORKLOADS = ("graph500", "memcached", "gups")

#: Configurations each workload is measured under (model inputs + the
#: directly-simulated designs the models are checked against).
_CONFIGS = ("4K", "4K+4K", "DD", "4K+VD", "4K+GD", "DS")


@dataclass
class ModelComparison:
    """Model-predicted vs directly-simulated walk cycles for one design."""

    workload: str
    design: str
    predicted_cycles: float
    simulated_cycles: float

    @property
    def relative_error(self) -> float:
        """|predicted - simulated| / max(simulated, 1)."""
        return abs(self.predicted_cycles - self.simulated_cycles) / max(
            self.simulated_cycles, 1.0
        )


@dataclass
class Table4Result:
    """All comparisons."""

    comparisons: list[ModelComparison]
    #: Per-cell observability records (empty unless run with ``obs``).
    obs_records: tuple = ()


def run(
    trace_length: int = DEFAULT_TRACE_LENGTH,
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    seed: int = 0,
    progress: bool = False,
    jobs: int = 1,
    obs=None,
    sweep=None,
    isa: str = "x86_64",
) -> Table4Result:
    """Apply Table IV and compare against direct simulation."""
    configs = isa_configs(_CONFIGS, isa)
    label = dict(zip(_CONFIGS, configs))
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
    comparisons = []
    for name in workloads:
        native = grid.get(name, label["4K"])
        virt = grid.get(name, label["4K+4K"])
        dd = grid.get(name, label["DD"])
        vd = grid.get(name, label["4K+VD"])
        gd = grid.get(name, label["4K+GD"])
        ds = grid.get(name, label["DS"])

        inputs = model_inputs(native.run, virt.run, dd.run)
        designs = [
            ("Direct Segment", direct_segment_cycles(inputs), ds),
            ("Dual Direct", dual_direct_cycles(inputs), dd),
            ("VMM Direct", vmm_direct_cycles(
                model_inputs(native.run, virt.run, vd.run)
            ), vd),
            ("Guest Direct", guest_direct_cycles(
                model_inputs(native.run, virt.run, gd.run)
            ), gd),
        ]
        for design, predicted, simulated in designs:
            comparisons.append(
                ModelComparison(
                    workload=name,
                    design=design,
                    predicted_cycles=predicted,
                    simulated_cycles=simulated.run.translation_cycles,
                )
            )
    return Table4Result(
        comparisons=comparisons, obs_records=tuple(grid.observability())
    )


def format_comparison(result: Table4Result) -> str:
    """Render predicted-vs-simulated walk cycles."""
    headers = ["workload", "design", "model (Mcycles)", "simulated (Mcycles)", "rel err"]
    rows = [
        [
            c.workload,
            c.design,
            f"{c.predicted_cycles / 1e6:.3f}",
            f"{c.simulated_cycles / 1e6:.3f}",
            f"{100 * c.relative_error:.1f}%",
        ]
        for c in result.comparisons
    ]
    return format_table(
        headers, rows, title="Table IV linear models vs direct simulation"
    )

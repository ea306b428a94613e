"""Figure 8: network power when dynamically detuning FBFLY links.

For each workload (Uniform, Advert, Search) and each channel-control
mechanism (bidirectional pairs, independent channels), report network
power as a percent of the full-rate baseline under:

- (a) the measured channel power curve of Figure 5, and
- (b) ideally energy-proportional channels,

alongside the two references the paper discusses in Section 4.2.1: the
always-slowest network (42% measured / 6.25% ideal, but it cannot carry
the load) and the ideal energy-proportional network (power = the
baseline run's average utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.ideal import always_slowest_power_fraction
from repro.experiments.report import Claim, format_table, pct
from repro.experiments.runner import (
    CONTROL_NONE,
    SimulationSpec,
    SimulationSummary,
    baseline_spec,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep
from repro.power.channel_models import IdealChannelPower, MeasuredChannelPower

WORKLOADS = ("uniform", "advert", "search")


@dataclass
class WorkloadPowerRow:
    """One workload's Figure 8 bars plus its references."""

    workload: str
    baseline_utilization: float        # == ideal proportional power
    paired: SimulationSummary
    independent: SimulationSummary

    @property
    def reduction_factor_ideal_independent(self) -> float:
        """Power-reduction factor for ideal channels + independent control
        (the paper's headline 6x for the trace workloads)."""
        return 1.0 / self.independent.ideal_power_fraction


@dataclass
class Figure8Result:
    rows_by_workload: Dict[str, WorkloadPowerRow]
    always_slowest_measured: float
    always_slowest_ideal: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        out = []
        for name, row in self.rows_by_workload.items():
            out.append([
                name,
                pct(row.paired.measured_power_fraction),
                pct(row.independent.measured_power_fraction),
                pct(row.paired.ideal_power_fraction),
                pct(row.independent.ideal_power_fraction),
                pct(row.baseline_utilization),
            ])
        return out

    def format_chart(self) -> str:
        """The two panels as grouped bar charts, like the paper's figure."""
        from repro.experiments.charts import grouped_bar_chart
        panels = []
        for panel, attribute in (("(a) measured channels",
                                  "measured_power_fraction"),
                                 ("(b) ideal channels",
                                  "ideal_power_fraction")):
            groups = {
                name: {
                    "paired     ": getattr(row.paired, attribute),
                    "independent": getattr(row.independent, attribute),
                    "ideal      ": row.baseline_utilization,
                }
                for name, row in self.rows_by_workload.items()
            }
            panels.append(grouped_bar_chart(
                groups, scale_max=1.0,
                title=f"Figure 8{panel[1]}: percent of baseline power "
                      f"{panel}"))
        return "\n\n".join(panels)

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Workload",
             "(a) meas/paired", "(a) meas/indep",
             "(b) ideal/paired", "(b) ideal/indep",
             "ideal (avg util)"],
            self.rows(),
            title="Figure 8: network power vs full-rate baseline",
        )
        extras = [
            f"Always-slowest reference: measured "
            f"{pct(self.always_slowest_measured)}, ideal "
            f"{pct(self.always_slowest_ideal)} (cannot carry offered load)",
        ]
        for name, row in self.rows_by_workload.items():
            extras.append(
                f"{name}: ideal-channel independent-control reduction "
                f"{row.reduction_factor_ideal_independent:.1f}x")
        return "\n".join([table] + extras + ["", self.format_chart()])


def run(scale: Optional[ExperimentScale] = None) -> Figure8Result:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    # One spec batch for the whole figure: 3 workloads x (baseline,
    # paired, independent), deduplicated and parallelized by the sweep
    # harness instead of executed serially.
    variants: Dict[str, tuple] = {}
    batch = []
    for workload in WORKLOADS:
        spec = SimulationSpec(
            k=scale.k, n=scale.n, workload=workload,
            duration_ns=scale.duration_ns,
        )
        trio = (baseline_spec(spec), spec,
                replace(spec, independent_channels=True))
        variants[workload] = trio
        batch.extend(trio)
    results = sweep(batch)
    rows: Dict[str, WorkloadPowerRow] = {}
    for workload, (base, paired, independent) in variants.items():
        rows[workload] = WorkloadPowerRow(
            workload=workload,
            baseline_utilization=results[base].average_utilization,
            paired=results[paired],
            independent=results[independent],
        )
    return Figure8Result(
        rows_by_workload=rows,
        always_slowest_measured=always_slowest_power_fraction(
            MeasuredChannelPower()),
        always_slowest_ideal=always_slowest_power_fraction(
            IdealChannelPower()),
    )


def _traces(result: Figure8Result) -> List[WorkloadPowerRow]:
    """The trace workloads' rows (Advert and Search)."""
    return [result.rows_by_workload[w] for w in ("advert", "search")]


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("with measured channels, trace-workload power approaches the "
          "42% floor",
          lambda r: all(0.42 <= row.independent.measured_power_fraction
                        < 0.60 for row in _traces(r))),
    Claim("with ideal channels, trace-workload power falls more than 4x",
          lambda r: all(row.reduction_factor_ideal_independent > 4.0
                        for row in _traces(r))),
    Claim("power cannot beat the average-utilization floor",
          lambda r: all(row.independent.ideal_power_fraction
                        > row.baseline_utilization for row in _traces(r))),
    Claim("Uniform with ideal independent channels draws ~36% of baseline",
          lambda r: 0.25 < r.rows_by_workload["uniform"]
          .independent.ideal_power_fraction < 0.45),
    Claim("independent channel control never loses to paired control",
          lambda r: all(row.independent.ideal_power_fraction
                        <= row.paired.ideal_power_fraction * 1.02
                        for row in r.rows_by_workload.values())),
)

"""Headline savings: simulated power fractions priced at full scale.

Ties the simulation results (Figure 8) back to the paper's dollar
claims: runs every workload under independent-channel control, projects
the measured and ideal-channel power fractions onto the 32k-host 8-ary
5-flat of Section 2.2 (737,280 W at full rate), and prices the savings
over the four-year service life.

Paper anchors: a 6x reduction is "a potential four-year energy savings
of an additional $2.4M"; the 6.6x best case "$2.5M"; and with the
topology's own $1.6M, "up to $3M over a four-year lifetime" for the
combined proposal (conclusion; the intro's $1.6M + $2.4M arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.report import Claim, dollars, format_table, pct
from repro.experiments.runner import (
    SimulationSpec,
    baseline_spec,
    cached_run,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.power.cost import EnergyCostModel
from repro.power.switch_budget import NetworkEnergyBudget, project_savings
from repro.topology.flattened_butterfly import FlattenedButterfly

WORKLOADS = ("uniform", "advert", "search")


@dataclass
class SavingsRow:
    workload: str
    measured_power_fraction: float
    ideal_power_fraction: float
    measured_savings_dollars: float
    ideal_savings_dollars: float


@dataclass
class SavingsResult:
    rows_by_workload: Dict[str, SavingsRow]
    budget: NetworkEnergyBudget
    topology_savings_dollars: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        return [
            [row.workload,
             pct(row.measured_power_fraction),
             dollars(row.measured_savings_dollars),
             pct(row.ideal_power_fraction),
             dollars(row.ideal_savings_dollars),
             dollars(row.ideal_savings_dollars
                     + self.topology_savings_dollars)]
            for row in self.rows_by_workload.values()
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Workload", "Power (meas.)", "4yr savings (meas.)",
             "Power (ideal)", "4yr savings (ideal)",
             "+ topology savings"],
            self.rows(),
            title="Projected savings at the 32k-host scale "
                  "(independent channels, Section 2.2 build)",
        )
        return (f"{table}\n"
                f"Full-rate network: {self.budget.full_watts:,.0f} W; "
                f"FBFLY-over-Clos topology savings: "
                f"{dollars(self.topology_savings_dollars)}")


def run(scale: Optional[ExperimentScale] = None,
        cost_model: EnergyCostModel = EnergyCostModel()) -> SavingsResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    fbfly = FlattenedButterfly(k=8, n=5)   # the paper's full-scale build
    budget = NetworkEnergyBudget.for_topology(fbfly)
    rows: Dict[str, SavingsRow] = {}
    for workload in WORKLOADS:
        spec = SimulationSpec(
            k=scale.k, n=scale.n, workload=workload,
            duration_ns=scale.duration_ns,
            independent_channels=True,
        )
        summary = cached_run(spec)
        rows[workload] = SavingsRow(
            workload=workload,
            measured_power_fraction=summary.measured_power_fraction,
            ideal_power_fraction=summary.ideal_power_fraction,
            measured_savings_dollars=project_savings(
                summary.measured_power_fraction, budget, cost_model),
            ideal_savings_dollars=project_savings(
                summary.ideal_power_fraction, budget, cost_model),
        )
    # The Clos-vs-FBFLY topology savings stack on top (Table 1).
    from repro.power.cluster import ClusterPowerModel
    from repro.topology.folded_clos import FoldedClos
    power_model = ClusterPowerModel()
    clos_watts = power_model.network_power(
        FoldedClos(fbfly.num_hosts)).total_watts
    topology_savings = cost_model.lifetime_savings(
        clos_watts, budget.full_watts)
    return SavingsResult(rows_by_workload=rows, budget=budget,
                         topology_savings_dollars=topology_savings)


def _traces(result: SavingsResult) -> List[SavingsRow]:
    """The trace workloads' rows (Advert and Search)."""
    return [result.rows_by_workload[w] for w in ("advert", "search")]


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("the flattened butterfly topology saves $1.6M",
          lambda r: abs(r.topology_savings_dollars - 1.6e6) < 0.05e6),
    Claim("ideal channels save $2.4M-$2.5M",
          lambda r: all(2.0e6 < row.ideal_savings_dollars < 3.0e6
                        for row in _traces(r))),
    Claim("topology and rate scaling save up to $3M over four years",
          lambda r: all(2.7e6 < row.measured_savings_dollars
                        + r.topology_savings_dollars < 3.6e6
                        for row in _traces(r))),
)

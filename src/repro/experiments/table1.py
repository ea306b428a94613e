"""Table 1: energy comparison of topologies at fixed bisection bandwidth.

Reproduces the paper's comparison between a 32k-host folded-Clos and an
8-ary 5-flat flattened butterfly built from the same 36-port, 100 W
switch chips — part counts, total power, power per unit of bisection
bandwidth — plus the $1.6M four-year savings the paper headlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.report import Claim, dollars, format_table
from repro.power.cluster import ClusterPowerModel
from repro.power.cost import EnergyCostModel
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos


@dataclass
class Table1Result:
    """Both topology columns plus the derived cost comparison."""

    clos: Dict[str, float]
    fbfly: Dict[str, float]
    fbfly_savings_dollars: float
    fbfly_lifetime_cost_dollars: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        labels = [
            ("num_hosts", "Number of hosts (N)", "{:,.0f}"),
            ("bisection_gbps", "Bisection B/W (Gb/s)", "{:,.0f}"),
            ("electrical_links", "Electrical links", "{:,.0f}"),
            ("optical_links", "Optical links", "{:,.0f}"),
            ("switch_chips", "Switch chips", "{:,.0f}"),
            ("total_power_watts", "Total power (W)", "{:,.0f}"),
            ("watts_per_bisection_gbps", "Power per bisection (W/Gb/s)",
             "{:.2f}"),
        ]
        return [
            [label, fmt.format(self.clos[key]), fmt.format(self.fbfly[key])]
            for key, label, fmt in labels
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Parameter", "Folded Clos", "FBFLY (8-ary 5-flat)"],
            self.rows(),
            title="Table 1: topology energy comparison, fixed bisection B/W",
        )
        return (
            f"{table}\n"
            f"FBFLY 4-year energy savings vs Clos: "
            f"{dollars(self.fbfly_savings_dollars)}\n"
            f"FBFLY 4-year energy cost (always-on): "
            f"{dollars(self.fbfly_lifetime_cost_dollars)}"
        )


def run(num_hosts: int = 32 * 1024, link_rate_gbps: float = 40.0,
        power_model: ClusterPowerModel = ClusterPowerModel(),
        cost_model: EnergyCostModel = EnergyCostModel()) -> Table1Result:
    """Build both topologies and compare them."""
    fbfly = FlattenedButterfly(k=8, n=5)
    if fbfly.num_hosts != num_hosts:
        # Non-default sizes: pick the smallest 5-flat that reaches them.
        k = 2
        while k ** 5 < num_hosts:
            k += 1
        fbfly = FlattenedButterfly(k=k, n=5)
    clos = FoldedClos(num_hosts)
    clos_row = power_model.table1_row(clos, link_rate_gbps)
    fbfly_row = power_model.table1_row(fbfly, link_rate_gbps)
    return Table1Result(
        clos=clos_row,
        fbfly=fbfly_row,
        fbfly_savings_dollars=cost_model.lifetime_savings(
            clos_row["total_power_watts"], fbfly_row["total_power_watts"]),
        fbfly_lifetime_cost_dollars=cost_model.lifetime_cost(
            fbfly_row["total_power_watts"]),
    )


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("the folded Clos needs 8,235 switch chips",
          lambda r: r.clos["switch_chips"] == 8235),
    Claim("the flattened butterfly needs 4,096 switch chips",
          lambda r: r.fbfly["switch_chips"] == 4096),
    Claim("the folded Clos draws 1,146,880 W",
          lambda r: r.clos["total_power_watts"] == 1_146_880),
    Claim("the flattened butterfly draws 737,280 W",
          lambda r: r.fbfly["total_power_watts"] == 737_280),
    Claim("the flattened butterfly saves $1.6M over four years",
          lambda r: abs(r.fbfly_savings_dollars - 1.607e6) < 0.01e6),
)

"""Figure 1: comparison of server and network power.

Three scenarios over a 32k-server cluster with a folded-Clos network:
everything at 100% utilization (network ~12% of power), 15% utilization
with energy-proportional servers (network ~50% of power), and 15% with
an energy-proportional network too.  Also derives the savings the paper
quotes: ~975 kW at 15% load, worth ~$3.8M over four years.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.report import Claim, dollars, format_table, pct, watts
from repro.power.cluster import ClusterPowerModel
from repro.power.cost import EnergyCostModel
from repro.topology.folded_clos import FoldedClos


@dataclass
class Figure1Result:
    """The three scenario bars plus the derived savings."""

    scenarios: Dict[str, Dict[str, float]]
    network_watts_saved_at_15pct: float
    savings_dollars: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        for name, bars in self.scenarios.items():
            total = bars["server_watts"] + bars["network_watts"]
            rows.append([
                name,
                watts(bars["server_watts"]),
                watts(bars["network_watts"]),
                pct(bars["network_watts"] / total),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Scenario", "Server power", "Network power",
             "Network share"],
            self.rows(),
            title="Figure 1: server vs network power",
        )
        return (
            f"{table}\n"
            f"Proportional network saves "
            f"{watts(self.network_watts_saved_at_15pct)} at 15% load "
            f"({dollars(self.savings_dollars)} over 4 years)"
        )


def run(num_hosts: int = 32 * 1024,
        power_model: ClusterPowerModel = ClusterPowerModel(),
        cost_model: EnergyCostModel = EnergyCostModel()) -> Figure1Result:
    """Run the experiment and return its result object."""
    clos = FoldedClos(num_hosts)
    scenarios = power_model.figure1_scenarios(clos)
    full_network = scenarios["proportional_servers_15pct"]["network_watts"]
    prop_network = scenarios[
        "proportional_servers_and_network_15pct"]["network_watts"]
    saved = full_network - prop_network
    return Figure1Result(
        scenarios=scenarios,
        network_watts_saved_at_15pct=saved,
        savings_dollars=cost_model.lifetime_savings(full_network, prop_network),
    )


def _share(result: Figure1Result, scenario: str) -> float:
    watts = result.scenarios[scenario]
    return watts["network_watts"] / (
        watts["network_watts"] + watts["server_watts"])


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("the network is ~12% of power at full utilization",
          lambda r: 0.11 < _share(r, "full_utilization") < 0.13),
    Claim("the network is ~50% of power with proportional servers at 15%",
          lambda r: 0.45 < _share(r, "proportional_servers_15pct") < 0.52),
    Claim("a proportional network saves ~975 kW",
          lambda r: abs(r.network_watts_saved_at_15pct - 975_000) < 10_000),
)

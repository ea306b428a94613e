"""Channel-load asymmetry (Section 3.3.1, the basis of Figure 7b).

Measures, on a baseline full-rate run, how unequally the two directions
of each bidirectional link are loaded.  The paper's argument: "many
traffic patterns show very asymmetric use", so tying a link pair to one
speed wastes the quiet direction's power.  We report the distribution of
per-pair utilization ratios plus the workload-level host asymmetry.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.report import Claim, format_table, pct
from repro.experiments.runner import CONTROL_NONE, SimulationSpec
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep
from repro.sums import left_sum


@dataclass
class AsymmetryResult:
    workload: str
    #: max(util)/min(util) per link pair, for pairs with traffic both ways.
    pair_ratios: List[float]
    #: Fraction of pairs where one direction carries >= 2x the other.
    fraction_2x: float
    #: Mean utilization of the busier vs quieter direction.
    mean_hot_utilization: float
    mean_cold_utilization: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        ratios = self.pair_ratios
        if not ratios:
            return [["(no loaded pairs)", "-", "-"]]
        # The inclusive method interpolates between order statistics as
        # a linear percentile does; it needs two points, and one point
        # is its own 90th percentile.
        p90 = (ratios[0] if len(ratios) == 1 else
               statistics.quantiles(ratios, n=10, method="inclusive")[8])
        return [
            ["median direction ratio",
             f"{statistics.median(ratios):.2f}x", ""],
            ["90th pct direction ratio", f"{p90:.2f}x", ""],
            ["pairs with >=2x imbalance", pct(self.fraction_2x), ""],
            ["mean util (hot direction)", pct(self.mean_hot_utilization), ""],
            ["mean util (cold direction)", pct(self.mean_cold_utilization), ""],
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Metric", "Value", ""],
            self.rows(),
            title=f"Channel asymmetry on baseline run ({self.workload})",
        )


def run(scale: Optional[ExperimentScale] = None,
        workload: str = "search", seed: int = 1) -> AsymmetryResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    spec = SimulationSpec(k=scale.k, n=scale.n, workload=workload,
                          duration_ns=scale.duration_ns, seed=seed,
                          control=CONTROL_NONE, measures=("link_pairs",))
    pairs = sweep([spec])[spec].measures["link_pairs"]
    cold = [lo for lo, _ in pairs]
    hot = [hi for _, hi in pairs]
    ratios = [hi / lo for lo, hi in pairs if lo > 0]
    return AsymmetryResult(
        workload=workload,
        pair_ratios=ratios,
        fraction_2x=(sum(ratio >= 2.0 for ratio in ratios) / len(ratios)
                     if ratios else 0.0),
        mean_hot_utilization=left_sum(hot) / len(hot) if hot else 0.0,
        mean_cold_utilization=left_sum(cold) / len(cold) if cold else 0.0,
    )


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("many traffic patterns show very asymmetric use",
          lambda r: r.fraction_2x > 0.3),
    Claim("a link's hot direction carries over 1.5x its cold one's load",
          lambda r: r.mean_hot_utilization > 1.5 * r.mean_cold_utilization),
)

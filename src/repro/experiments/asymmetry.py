"""Channel-load asymmetry (Section 3.3.1, the basis of Figure 7b).

Measures, on a baseline full-rate run, how unequally the two directions
of each bidirectional link are loaded.  The paper's argument: "many
traffic patterns show very asymmetric use", so tying a link pair to one
speed wastes the quiet direction's power.  We report the distribution of
per-pair utilization ratios plus the workload-level host asymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.experiments.report import format_table, pct
from repro.experiments.runner import CONTROL_NONE, SimulationSpec
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep

if TYPE_CHECKING:
    import numpy as np


@dataclass
class AsymmetryResult:
    workload: str
    #: max(util)/min(util) per link pair, for pairs with traffic both ways.
    pair_ratios: np.ndarray
    #: Fraction of pairs where one direction carries >= 2x the other.
    fraction_2x: float
    #: Mean utilization of the busier vs quieter direction.
    mean_hot_utilization: float
    mean_cold_utilization: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        import numpy as np

        if len(self.pair_ratios) == 0:
            return [["(no loaded pairs)", "-", "-"]]
        return [
            ["median direction ratio", f"{np.median(self.pair_ratios):.2f}x", ""],
            ["90th pct direction ratio",
             f"{np.percentile(self.pair_ratios, 90):.2f}x", ""],
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
    import numpy as np

    scale = scale or current_scale()
    spec = SimulationSpec(k=scale.k, n=scale.n, workload=workload,
                          duration_ns=scale.duration_ns, seed=seed,
                          control=CONTROL_NONE, measures=("link_pairs",))
    pairs = sweep([spec])[spec].measures["link_pairs"]
    cold = [lo for lo, _ in pairs]
    hot = [hi for _, hi in pairs]
    ratios = [hi / lo for lo, hi in pairs if lo > 0]
    ratios_arr = np.array(ratios)
    return AsymmetryResult(
        workload=workload,
        pair_ratios=ratios_arr,
        fraction_2x=(float(np.mean(ratios_arr >= 2.0))
                     if len(ratios_arr) else 0.0),
        mean_hot_utilization=float(np.mean(hot)) if hot else 0.0,
        mean_cold_utilization=float(np.mean(cold)) if cold else 0.0,
    )


def main() -> None:
    """CLI entry point: run the experiment and print its table."""
    print(run().format_table())


if __name__ == "__main__":
    main()

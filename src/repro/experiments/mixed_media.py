"""Ablation: packaging locality priced into the simulation.

Table 1 and Figure 8 both simplify link media — Table 1 assumes all
links cost the same power ("which does not favor the FBFLY topology"),
and Figure 8a prices every channel on the optical curve.  This
experiment lifts the simplification: each simulated channel carries its
medium (the FBFLY's dimension 0 and host links are copper, higher
dimensions optical, per Section 2.2's packaging model) and copper
channels are priced ~25% below optical at every mode (Figure 5).

Reported for baseline and rate-scaled runs: the all-optical pricing the
paper uses, and the packaging-aware pricing — both normalized to a
full-rate all-optical network, so the delta is the power the paper's
conservative assumption leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.experiments.report import format_table, pct
from repro.experiments.runner import (
    CONTROL_EPOCH,
    CONTROL_NONE,
    SimulationSpec,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep


@dataclass
class MixedMediaRow:
    label: str
    all_optical: float
    packaging_aware: float

    @property
    def saving(self) -> float:
        """All-optical minus packaging-aware power fraction."""
        return self.all_optical - self.packaging_aware


@dataclass
class MixedMediaResult:
    rows_list: List[MixedMediaRow]
    copper_channel_fraction: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        return [
            [row.label, pct(row.all_optical), pct(row.packaging_aware),
             pct(row.saving)]
            for row in self.rows_list
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        table = format_table(
            ["Configuration", "All-optical pricing", "Packaging-aware",
             "Difference"],
            self.rows(),
            title="Mixed-media pricing (FBFLY packaging model, Search)",
        )
        return (f"{table}\n"
                f"Copper share of channels: "
                f"{pct(self.copper_channel_fraction)}")


def run(scale: Optional[ExperimentScale] = None,
        seed: int = 1) -> MixedMediaResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    baseline = SimulationSpec(k=scale.k, n=scale.n, workload="search",
                              duration_ns=scale.duration_ns, seed=seed,
                              control=CONTROL_NONE, measures=("media",))
    specs = {"baseline (all 40 Gb/s)": baseline,
             "rate-scaled (independent)": replace(
                 baseline, control=CONTROL_EPOCH,
                 independent_channels=True)}
    results = sweep(specs.values())
    runs = {label: results[spec] for label, spec in specs.items()}
    return MixedMediaResult(
        rows_list=[MixedMediaRow(
            label=label, all_optical=run.measured_power_fraction,
            packaging_aware=run.measures["media"]["packaging_aware"])
            for label, run in runs.items()],
        copper_channel_fraction=runs[
            "rate-scaled (independent)"].measures["media"]["copper_fraction"])


def main() -> None:
    """CLI entry point: run the experiment and print its table."""
    print(run().format_table())


if __name__ == "__main__":
    main()

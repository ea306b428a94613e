"""Ablation: energy-aware routing vs plain adaptive routing (§5.1).

Plain queue-depth adaptive routing levels load — keeping every link
lukewarm and preventing deep sleep; energy-aware routing consolidates
traffic onto already-fast links so cold links keep descending the rate
ladder.  This experiment runs both under the same epoch controller and
reports power, latency and time-at-slowest-rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.report import format_table, pct, us
from repro.experiments.runner import SimulationSpec, SimulationSummary
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep


@dataclass
class EnergyAwareResult:
    runs: Dict[str, SimulationSummary]

    def slowest_time(self, name: str) -> float:
        """Fraction of channel-time at the slowest rate."""
        return self.runs[name].time_at_rate.get(2.5, 0.0)

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        for name, summary in self.runs.items():
            rows.append([
                name,
                pct(summary.measured_power_fraction),
                pct(summary.ideal_power_fraction),
                pct(self.slowest_time(name)),
                us(summary.mean_message_latency_ns),
                pct(summary.delivered_fraction),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Routing", "Power (measured)", "Power (ideal)",
             "Time at 2.5 Gb/s", "Mean latency", "Delivered"],
            self.rows(),
            title="Energy-aware vs plain adaptive routing "
                  "(Search, independent channels)",
        )


def run(scale: Optional[ExperimentScale] = None,
        seed: int = 1) -> EnergyAwareResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    adaptive = SimulationSpec(k=scale.k, n=scale.n, workload="search",
                              duration_ns=scale.duration_ns, seed=seed,
                              independent_channels=True,
                              inject_fraction=0.7)
    specs = {"adaptive": adaptive,
             "energy-aware": replace(adaptive, routing="energy_aware")}
    results = sweep(specs.values())
    runs = {name: results[spec] for name, spec in specs.items()}
    return EnergyAwareResult(runs=runs)


def main() -> None:
    """CLI entry point: run the experiment and print its table."""
    print(run().format_table())


if __name__ == "__main__":
    main()

"""Ablation: congestion sensors for the rate-decision input (§3.2/§3.3).

The paper argues channel utilization alone is a sufficient demand
estimator because "utilization effectively captures both" data
availability and credit state.  This experiment runs the same epoch
controller with each estimator — utilization, queue occupancy, a
credit-stall-aware variant, and a composite — and compares power,
latency and reconfiguration churn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.report import Claim, format_table, pct, us
from repro.experiments.runner import (
    SimulationSpec,
    SimulationSummary,
    baseline_spec,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep

#: Table label -> ``SimulationSpec.sensor`` (the composite sensor takes
#: the larger of utilization and queue occupancy).
SENSORS = {
    "utilization": None,
    "queue-occupancy": "queue_occupancy",
    "credit-stall": "credit_stall",
    "composite": "composite",
}


@dataclass
class SensorsResult:
    baseline: SimulationSummary
    runs: Dict[str, SimulationSummary]

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        for name, run in self.runs.items():
            added = (run.mean_message_latency_ns
                     - self.baseline.mean_message_latency_ns)
            rows.append([
                name,
                pct(run.measured_power_fraction),
                pct(run.ideal_power_fraction),
                us(added),
                run.reconfigurations,
                pct(run.delivered_fraction),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Sensor", "Power (measured)", "Power (ideal)",
             "Added latency", "Reconfigs", "Delivered"],
            self.rows(),
            title="Congestion-sensor ablation "
                  "(Search, independent channels)",
        )


def run(scale: Optional[ExperimentScale] = None,
        seed: int = 1) -> SensorsResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    base = SimulationSpec(k=scale.k, n=scale.n, workload="search",
                          duration_ns=scale.duration_ns, seed=seed,
                          independent_channels=True)
    specs = {name: replace(base, sensor=sensor)
             for name, sensor in SENSORS.items()}
    results = sweep([baseline_spec(base), *specs.values()])
    return SensorsResult(
        baseline=results[baseline_spec(base)],
        runs={name: results[spec] for name, spec in specs.items()})


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("no sensor saves meaningfully more power than utilization",
          lambda r: all(run.ideal_power_fraction
                        > 0.8 * r.runs["utilization"].ideal_power_fraction
                        for run in r.runs.values())),
    Claim("utilization keeps throughput on par with the best sensor",
          lambda r: r.runs["utilization"].delivered_fraction
          > 0.95 * max(run.delivered_fraction for run in r.runs.values())),
)

"""Ablation: the two-dimensional lane ladder with asymmetric transitions.

Compares the paper's evaluation configuration (scalar rate ladder, one
conservative 1 µs reactivation for every transition) against the §5.2
refinement (full InfiniBand lane x clock ladder, CDR-only re-locks at
~100 ns, lane changes at ~2 µs, narrow-fast preferred over wide-slow).
Reported per controller: power, added latency, reconfiguration count and
the total time links spent stalled in reactivation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.report import Claim, format_table, pct, us
from repro.experiments.runner import (
    CONTROL_EPOCH,
    CONTROL_NONE,
    SimulationSpec,
    SimulationSummary,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep


@dataclass
class LaneLadderRun:
    name: str
    summary: SimulationSummary
    power_fraction: float
    stall_ns_total: float


@dataclass
class LaneLadderResult:
    runs: Dict[str, LaneLadderRun]
    baseline_latency_ns: float

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        for run in self.runs.values():
            added = (run.summary.mean_message_latency_ns
                     - self.baseline_latency_ns)
            rows.append([
                run.name,
                pct(run.power_fraction),
                us(added),
                run.summary.reconfigurations,
                us(run.stall_ns_total),
                pct(run.summary.delivered_fraction),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Controller", "Power (measured)", "Added latency",
             "Reconfigs", "Total stall", "Delivered"],
            self.rows(),
            title="Scalar ladder vs lane-aware ladder "
                  "(Search, independent channels)",
        )


def run(scale: Optional[ExperimentScale] = None,
        seed: int = 1) -> LaneLadderResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    baseline = SimulationSpec(k=scale.k, n=scale.n, workload="search",
                              duration_ns=scale.duration_ns, seed=seed,
                              control=CONTROL_NONE)
    scalar = replace(baseline, control=CONTROL_EPOCH, independent_channels=True)
    lane = replace(scalar, control="lane_aware", measures=("lane",))
    # The full-rate baseline is the latency reference.
    results = sweep([baseline, scalar, lane])
    scalar_run, lane_run = results[scalar], results[lane]
    return LaneLadderResult(
        runs={
            "scalar 1us": LaneLadderRun(
                name="scalar 1us", summary=scalar_run,
                power_fraction=scalar_run.measured_power_fraction,
                stall_ns_total=(scalar_run.reconfigurations
                                * scalar.reactivation_ns)),
            "lane-aware": LaneLadderRun(
                name="lane-aware", summary=lane_run,
                power_fraction=lane_run.measures["lane"]["power_fraction"],
                stall_ns_total=lane_run.measures["lane"]["stall_ns"]),
        },
        baseline_latency_ns=results[baseline].mean_message_latency_ns,
    )


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("the lane-aware ladder matches the scalar ladder's power",
          lambda r: abs(r.runs["lane-aware"].power_fraction
                        - r.runs["scalar 1us"].power_fraction) < 0.05),
    Claim("pricing CDR-only re-locks cuts total reconfiguration stall",
          lambda r: r.runs["lane-aware"].stall_ns_total
          < 0.7 * r.runs["scalar 1us"].stall_ns_total),
    Claim("the lane-aware ladder loses no traffic",
          lambda r: r.runs["lane-aware"].summary.delivered_fraction
          > 0.95 * r.runs["scalar 1us"].summary.delivered_fraction),
)

"""Section 5.2 ablation: better heuristics.

Compares the paper's one-step threshold policy against the extensions it
sketches — aggressive min/max jumps, a hysteresis dead band, and a
predictive EWMA policy — on the same workload, with independent channel
control.  Reported per policy: network power (measured and ideal
channels), added mean latency vs baseline, and reconfiguration count
(the meta-stability indicator).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.report import Claim, format_table, pct, us
from repro.experiments.runner import (
    SimulationSpec,
    SimulationSummary,
    baseline_spec,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep

POLICIES = ("threshold", "aggressive", "hysteresis", "predictive")


@dataclass
class PoliciesResult:
    workload: str
    baseline: SimulationSummary
    by_policy: Dict[str, SimulationSummary]

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        for name, summary in self.by_policy.items():
            added = (summary.mean_message_latency_ns
                     - self.baseline.mean_message_latency_ns)
            rows.append([
                name,
                pct(summary.measured_power_fraction),
                pct(summary.ideal_power_fraction),
                us(added),
                summary.reconfigurations,
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Policy", "Power (measured)", "Power (ideal)",
             "Added latency", "Reconfigs"],
            self.rows(),
            title=f"Section 5.2 policy ablation ({self.workload}, "
                  "independent channels)",
        )


def run(scale: Optional[ExperimentScale] = None,
        workload: str = "search",
        policies: Sequence[str] = POLICIES) -> PoliciesResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    base = SimulationSpec(
        k=scale.k, n=scale.n, workload=workload,
        duration_ns=scale.duration_ns,
        independent_channels=True,
    )
    base_ref = baseline_spec(base)
    policy_specs = {policy: replace(base, policy=policy)
                    for policy in policies}
    results = sweep([base_ref, *policy_specs.values()])
    by_policy = {policy: results[spec]
                 for policy, spec in policy_specs.items()}
    return PoliciesResult(workload=workload, baseline=results[base_ref],
                          by_policy=by_policy)


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("every policy saves large measured power on a 6%-load trace",
          lambda r: all(s.measured_power_fraction < 0.7
                        for s in r.by_policy.values())),
    Claim("every policy draws under 35% of baseline with ideal channels",
          lambda r: all(s.ideal_power_fraction < 0.35
                        for s in r.by_policy.values())),
    Claim("the aggressive policy reconfigures less than one-step threshold",
          lambda r: r.by_policy["aggressive"].reconfigurations
          < r.by_policy["threshold"].reconfigurations),
)

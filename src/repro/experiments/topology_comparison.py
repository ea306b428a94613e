"""Section 3.2 ablation: rate scaling on a folded-Clos vs on the FBFLY.

The paper claims the mechanisms apply to other topologies "such as a
folded-Clos", but argues the FBFLY is the better host for them (its
adaptive routing already senses congestion, and link-speed decisions are
purely local).  This experiment measures both fabrics with the same
epoch controller, the same channel hardware and a same-size workload:

- a flattened butterfly with minimal adaptive routing, and
- a three-level fat tree with up/down adaptive routing,

reporting power (both channel models), added latency vs each fabric's
own full-rate baseline, and delivered throughput.  The workload injects
for 70% of the horizon and the fabric drains for the remainder, so
delivered fractions compare capacity rather than cutoff artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.experiments.report import format_table, pct, us
from repro.experiments.runner import (
    SimulationSpec,
    SimulationSummary,
    baseline_spec,
)
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep

#: Fraction of the horizon during which the workload injects.
_INJECT_FRACTION = 0.7


@dataclass
class FabricRun:
    """Baseline + controlled summaries for one fabric."""

    name: str
    num_hosts: int
    num_switches: int
    baseline: SimulationSummary
    controlled: SimulationSummary

    @property
    def added_latency_ns(self) -> float:
        """Controlled-minus-baseline mean latency, ns."""
        return (self.controlled.mean_message_latency_ns
                - self.baseline.mean_message_latency_ns)


@dataclass
class TopologyComparisonResult:
    fabrics: Dict[str, FabricRun]

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        for run in self.fabrics.values():
            rows.append([
                run.name,
                f"{run.num_hosts} hosts / {run.num_switches} sw",
                pct(run.controlled.measured_power_fraction),
                pct(run.controlled.ideal_power_fraction),
                us(run.added_latency_ns),
                pct(run.controlled.delivered_fraction),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Fabric", "Size", "Power (measured)", "Power (ideal)",
             "Added latency", "Delivered"],
            self.rows(),
            title="Rate scaling on FBFLY vs folded-Clos (Search, "
                  "independent channels)",
        )


def run(scale: Optional[ExperimentScale] = None,
        seed: int = 1) -> TopologyComparisonResult:
    """Run the experiment and return its result object.

    The fat tree is the largest one with no more hosts than the scale's
    FBFLY.
    """
    scale = scale or current_scale()
    fbfly = SimulationSpec(k=scale.k, n=scale.n, workload="search",
                           duration_ns=scale.duration_ns, seed=seed,
                           independent_channels=True,
                           inject_fraction=_INJECT_FRACTION)
    radix = 4
    while (radix + 2) ** 3 // 4 <= scale.num_hosts:
        radix += 2
    controlled = {"fbfly": fbfly,
                  "fat-tree": replace(fbfly, k=radix, n=3,
                                      fabric="fat_tree")}
    results = sweep(spec for pair in controlled.values()
                    for spec in (baseline_spec(pair), pair))
    fabrics: Dict[str, FabricRun] = {}
    for name, spec in controlled.items():
        topology = spec.build_topology()
        fabrics[name] = FabricRun(
            name=name,
            num_hosts=topology.num_hosts,
            num_switches=topology.num_switches,
            baseline=results[baseline_spec(spec)],
            controlled=results[spec],
        )
    return TopologyComparisonResult(fabrics=fabrics)


def main() -> None:
    """CLI entry point: run the experiment and print its table."""
    print(run().format_table())


if __name__ == "__main__":
    main()

"""Section 5.1: dynamic topologies.

Evaluates the future-work proposal the paper describes but does not
simulate: powering FBFLY express links fully off to degrade the network
to a torus or mesh, and powering them back on as offered load grows.

Two sub-experiments:

- **Static modes**: the network pinned to mesh / torus / FBFLY across a
  sweep of uniform offered load, showing the bisection-vs-power tradeoff
  (mesh is cheapest but saturates first).
- **Dynamic controller**: the load-adaptive controller walking the mode
  ladder; reported per offered load: time in each mode, inter-switch
  link power (assuming a true power-off state, and alternatively
  today's static floor), delivered fraction and mean latency.

Power here is reported over *inter-switch* channels only: that is the
set the controller can disable (host links must stay up), so the
full-rate baseline is the FBFLY with every express link powered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.dynamic_topology import TopologyMode
from repro.experiments.report import format_table, pct, us
from repro.experiments.runner import SimulationSpec, SimulationSummary
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep

OFFERED_LOADS = (0.05, 0.15, 0.30)


@dataclass
class DynamicTopologyPoint:
    """One (mode policy, offered load) run."""

    label: str
    summary: SimulationSummary

    @property
    def offered_load(self) -> float:
        """The uniform workload's offered load."""
        return self.summary.spec.uniform_offered_load

    @property
    def mode_time_fractions(self) -> Dict[TopologyMode, float]:
        """Share of the run spent in each topology mode."""
        return {TopologyMode[name]: frac for name, frac in
                self.summary.measures["topology_modes"]["mode_time"].items()}

    @property
    def power_true_off(self) -> float:
        """Inter-switch power, ideal channels, off links cost 0."""
        return self.summary.measures["topology_modes"]["power_true_off"]

    @property
    def delivered_fraction(self) -> float:
        """Delivered share of the offered messages."""
        return self.summary.delivered_fraction


@dataclass
class DynamicTopologyResult:
    static_points: List[DynamicTopologyPoint]
    dynamic_points: List[DynamicTopologyPoint]

    def rows(self) -> List[List[object]]:
        """All rows, static modes first then the dynamic controller."""
        return self._rows(self.static_points + self.dynamic_points)

    @staticmethod
    def _rows(points: Sequence[DynamicTopologyPoint]) -> List[List[object]]:
        rows = []
        for p in points:
            modes = "/".join(
                f"{m.name.lower()}:{frac:.0%}"
                for m, frac in sorted(p.mode_time_fractions.items())
                if frac > 0.005)
            rows.append([
                p.label,
                f"{p.offered_load:.0%}",
                modes,
                pct(p.power_true_off),
                pct(p.summary.measures["topology_modes"]
                    ["power_static_floor"]),
                us(p.summary.mean_message_latency_ns),
                pct(p.delivered_fraction),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        static = format_table(
            ["Mode", "Load", "Time in mode", "Power (true off)",
             "Power (idle floor)", "Mean latency", "Delivered"],
            self._rows(self.static_points),
            title="Section 5.1: static mesh/torus/FBFLY modes",
        )
        dynamic = format_table(
            ["Policy", "Load", "Time in mode", "Power (true off)",
             "Power (idle floor)", "Mean latency", "Delivered"],
            self._rows(self.dynamic_points),
            title="Section 5.1: dynamic-topology controller",
        )
        return f"{static}\n\n{dynamic}"


def run(scale: Optional[ExperimentScale] = None,
        offered_loads: Sequence[float] = OFFERED_LOADS,
        seed: int = 1) -> DynamicTopologyResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    labels = {f"topology_{mode.name.lower()}": f"static-{mode.name.lower()}"
              for mode in TopologyMode}
    labels["dynamic_topology"] = "dynamic"
    specs = [(label, SimulationSpec(
        k=scale.k, n=scale.n, workload="uniform",
        uniform_offered_load=load, duration_ns=scale.duration_ns,
        seed=seed, control=control, measures=("topology_modes",)))
        for control, label in labels.items() for load in offered_loads]
    results = sweep(spec for _, spec in specs)
    points = [DynamicTopologyPoint(label, results[spec])
              for label, spec in specs]
    return DynamicTopologyResult(
        static_points=[p for p in points if p.label != "dynamic"],
        dynamic_points=[p for p in points if p.label == "dynamic"])


def main() -> None:
    """CLI entry point: run the experiment and print its table."""
    print(run().format_table())


if __name__ == "__main__":
    main()

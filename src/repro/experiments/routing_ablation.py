"""Ablation: adaptive routing is load-bearing for energy proportionality.

Section 3.3: "When links are undergoing reactivation, we do not
explicitly remove them from the set of legal output ports, but rather
rely on the adaptive routing mechanism to sense congestion and
automatically route traffic around the link."  Section 5.3 promotes the
same point to a requirement for future switch chips.

This experiment removes that mechanism: the same epoch controller runs
over minimal adaptive routing (queue-depth choice among all unresolved
dimensions) and over deterministic dimension-order routing (no choice at
all), across two reactivation latencies.  At the paper's 1 µs the
penalty is dominated by serialization at the detuned rates and the two
routings look alike; at 10 µs — where packets pile up behind stalled
links — adaptive routing's ability to drain around them shows up as
several points of *delivered throughput* (mean latency alone is
misleading here: it is computed over delivered messages, so a routing
that strands more traffic can report a lower mean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import Claim, format_table, pct, us
from repro.experiments.runner import SimulationSpec, SimulationSummary
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep

REACTIVATIONS_NS = (1_000.0, 10_000.0)

#: Table label -> ``SimulationSpec.routing``.
ROUTINGS = {"adaptive": None, "dimension-order": "dimension_order"}


@dataclass
class RoutingAblationResult:
    points: Dict[Tuple[str, float], SimulationSummary]
    reactivations_ns: Tuple[float, ...]

    def delivered(self, routing: str, reactivation_ns: float) -> float:
        """Delivered fraction for a (routing, reactivation) cell."""
        return self.points[(routing, reactivation_ns)].delivered_fraction

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        rows = []
        for (routing, react), summary in self.points.items():
            rows.append([
                routing,
                us(react, 0),
                pct(summary.measured_power_fraction),
                pct(summary.delivered_fraction),
                us(summary.mean_message_latency_ns),
                us(summary.p99_message_latency_ns),
            ])
        return rows

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Routing", "Reactivation", "Power (measured)", "Delivered",
             "Mean latency", "p99 latency"],
            self.rows(),
            title="Routing ablation under rate scaling "
                  "(Search, independent channels)",
        )


def run(scale: Optional[ExperimentScale] = None, seed: int = 1,
        reactivations_ns: Tuple[float, ...] = REACTIVATIONS_NS,
        ) -> RoutingAblationResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    specs = {
        (label, react): SimulationSpec(
            k=scale.k, n=scale.n, workload="search",
            duration_ns=scale.duration_ns, seed=seed,
            reactivation_ns=react, independent_channels=True,
            inject_fraction=0.7, routing=routing)
        for label, routing in ROUTINGS.items()
        for react in reactivations_ns
    }
    results = sweep(specs.values())
    points = {cell: results[spec] for cell, spec in specs.items()}
    return RoutingAblationResult(points=points,
                                 reactivations_ns=tuple(reactivations_ns))


#: The paper's claims this result bears out (checked by the CLI).
CLAIMS = (
    Claim("adaptive routing never delivers less than dimension-order",
          lambda r: all(r.delivered("adaptive", react)
                        >= 0.97 * r.delivered("dimension-order", react)
                        for react in r.reactivations_ns)),
    Claim("at the longest reactivation, adaptive routing's path diversity "
          "buys a real throughput margin",
          lambda r: r.delivered("adaptive", max(r.reactivations_ns))
          > 1.02 * r.delivered("dimension-order", max(r.reactivations_ns))),
)

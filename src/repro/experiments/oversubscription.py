"""Section 2.1.1: over-subscription as a power/performance trade.

"While we argue for high performance datacenter networks with little
over-subscription, the technique remains a practical and pragmatic
approach to reduce power (as well as capital expenditures), especially
when the level of over-subscription is modest."

Holding the switch fabric fixed (same k, n — same switches and
inter-switch links) and growing the concentration c packs more hosts
onto it: network power *per host* falls as 1/c on the switch side, but
the bisection per host falls as k/c, so a load that the balanced build
carries comfortably saturates the over-subscribed one.  This experiment
sweeps c at two offered loads and reports both sides of the trade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.report import Claim, format_table, pct, us
from repro.experiments.runner import CONTROL_NONE, SimulationSpec
from repro.experiments.scale import ExperimentScale, current_scale
from repro.experiments.sweep import sweep
from repro.power.cluster import ClusterPowerModel
from repro.topology.flattened_butterfly import FlattenedButterfly

OFFERED_LOADS = (0.1, 0.4)


@dataclass
class OversubscriptionPoint:
    c: int
    oversubscription: float
    num_hosts: int
    network_watts_per_host: float
    offered_load: float
    delivered_fraction: float
    mean_latency_ns: float


@dataclass
class OversubscriptionResult:
    points: List[OversubscriptionPoint]

    def rows(self) -> List[List[object]]:
        """The result's data rows, matching ``format_table``'s columns."""
        return [
            [f"c={p.c}", f"{p.oversubscription:g}:1", p.num_hosts,
             f"{p.network_watts_per_host:.1f} W",
             f"{p.offered_load:.0%}",
             pct(p.delivered_fraction),
             us(p.mean_latency_ns)]
            for p in self.points
        ]

    def format_table(self) -> str:
        """Render the result as an aligned text table."""
        return format_table(
            ["Concentration", "Over-sub", "Hosts", "Net W/host",
             "Offered", "Delivered", "Mean latency"],
            self.rows(),
            title="Section 2.1.1: over-subscription sweep "
                  "(uniform traffic, fixed switch fabric)",
        )


def run(scale: Optional[ExperimentScale] = None, seed: int = 1,
        offered_loads: Sequence[float] = OFFERED_LOADS,
        ) -> OversubscriptionResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    power_model = ClusterPowerModel()
    concentrations = (scale.k, scale.k * 3 // 2, scale.k * 2)
    # Submit the whole (concentration x load) grid as one sweep batch;
    # the analytic W/host figure comes from the power model, not a run.
    grid: List[tuple] = []
    batch: List[SimulationSpec] = []
    for c in concentrations:
        topology = FlattenedButterfly(k=scale.k, n=scale.n, c=c)
        watts_per_host = (power_model.network_power(topology).total_watts
                          / topology.num_hosts)
        for load in offered_loads:
            spec = SimulationSpec(
                k=scale.k, n=scale.n, workload="uniform",
                duration_ns=scale.duration_ns, seed=seed,
                control=CONTROL_NONE, uniform_offered_load=load,
                concentration=c, message_bytes=64 * 1024,
                inject_fraction=0.7,
            )
            grid.append((c, topology, watts_per_host, load, spec))
            batch.append(spec)
    results = sweep(batch)
    points: List[OversubscriptionPoint] = []
    for c, topology, watts_per_host, load, spec in grid:
        summary = results[spec]
        points.append(OversubscriptionPoint(
            c=c,
            oversubscription=topology.oversubscription,
            num_hosts=topology.num_hosts,
            network_watts_per_host=watts_per_host,
            offered_load=load,
            delivered_fraction=summary.delivered_fraction,
            mean_latency_ns=summary.mean_message_latency_ns,
        ))
    return OversubscriptionResult(points=points)


def _delivered(result: OversubscriptionResult, c: int, load: float) -> float:
    return next(p.delivered_fraction for p in result.points
                if (p.c, p.offered_load) == (c, load))


#: The paper's claims, over points that run concentration-major,
#: each over the loads in rising order.
CLAIMS = (
    Claim("network watts per host fall monotonically with concentration",
          lambda r: [p.network_watts_per_host for p in r.points] == sorted(
              [p.network_watts_per_host for p in r.points], reverse=True)),
    Claim("at low load every build delivers its traffic",
          lambda r: all(p.delivered_fraction > 0.9 for p in r.points
                        if p.offered_load == r.points[0].offered_load)),
    Claim("at high load the balanced build delivers its traffic",
          lambda r: _delivered(r, r.points[0].c,
                               r.points[-1].offered_load) > 0.9),
    Claim("at high load the 2:1 over-subscribed build saturates",
          lambda r: r.points[-1].delivered_fraction < 0.8 * _delivered(
              r, r.points[0].c, r.points[-1].offered_load)),
)

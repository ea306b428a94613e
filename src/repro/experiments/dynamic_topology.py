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

from repro.core.dynamic_topology import (
    DynamicTopologyConfig,
    DynamicTopologyController,
    TopologyMode,
)
from repro.experiments.report import format_table, pct, us
from repro.obs.decisions import DecisionLog
from repro.experiments.scale import ExperimentScale, current_scale
from repro.power.channel_models import IdealChannelPower
from repro.power.switch_profile import INFINIBAND_SWITCH_PROFILE
from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.workloads.uniform import UniformRandomWorkload

OFFERED_LOADS = (0.05, 0.15, 0.30)

#: Normalized power of a powered-off link on today's chips (Figure 5's
#: static floor) — the paper's reason powering off saves little today.
STATIC_FLOOR = INFINIBAND_SWITCH_PROFILE.static_floor


def pinned_config(mode: TopologyMode) -> DynamicTopologyConfig:
    """A controller config that never leaves ``mode``."""
    return DynamicTopologyConfig(
        upgrade_threshold=1.0, downgrade_threshold=0.0,
        congestion_bytes=float("inf"), start_mode=mode)


@dataclass
class DynamicTopologyPoint:
    """One (mode policy, offered load) sample."""

    label: str
    offered_load: float
    mode_time_fractions: Dict[TopologyMode, float]
    power_true_off: float          # ideal channels, off links cost 0
    power_static_floor: float      # off links still burn the idle floor
    mean_message_latency_ns: float
    delivered_fraction: float
    escapes: int
    #: Audit-log reason counts for the run's mode transitions
    #: (``topology_off`` / ``topology_on``) — the degrade decisions
    #: used to be invisible to the decision audit entirely.
    decision_counts: Dict[str, int] = None


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
                pct(p.power_static_floor),
                us(p.mean_message_latency_ns),
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


def _mode_fractions(controller: DynamicTopologyController,
                    end_ns: float) -> Dict[TopologyMode, float]:
    fractions = {mode: 0.0 for mode in TopologyMode}
    history = controller.mode_history + [(end_ns, controller.mode)]
    for (t0, mode), (t1, _) in zip(history, history[1:]):
        fractions[mode] += (t1 - t0) / end_ns if end_ns > 0 else 0.0
    return fractions


def _run_point(label: str, scale: ExperimentScale, offered_load: float,
               config: DynamicTopologyConfig,
               seed: int = 1) -> DynamicTopologyPoint:
    topology = FlattenedButterfly(k=scale.k, n=scale.n)
    # Degraded (ring) modes can deadlock without extra virtual channels
    # (the paper's torus footnote); a hot escape valve stands in for the
    # escape VC a real router would dedicate.
    network = FbflyNetwork(
        topology, NetworkConfig(seed=seed, escape_timeout_ns=50_000.0),
        routing_factory=RestrictedAdaptiveRouting)
    decision_log = DecisionLog(max_records=0)
    controller = DynamicTopologyController(network, config,
                                           decision_log=decision_log)
    workload = UniformRandomWorkload(
        topology.num_hosts, offered_load=offered_load, seed=seed,
        line_rate_gbps=network.config.ladder.max_rate)
    duration = scale.duration_ns
    network.attach_workload(workload.events(duration))
    stats = network.run(until_ns=duration)

    inter_switch = [ch.stats for ch in network.inter_switch_channels]
    ideal = IdealChannelPower()
    return DynamicTopologyPoint(
        label=label,
        offered_load=offered_load,
        mode_time_fractions=_mode_fractions(controller, stats.duration_ns),
        power_true_off=stats.power_fraction(
            ideal, channels=inter_switch, off_power=0.0),
        power_static_floor=stats.power_fraction(
            ideal, channels=inter_switch, off_power=STATIC_FLOOR),
        mean_message_latency_ns=stats.mean_message_latency_ns(),
        delivered_fraction=stats.delivered_fraction(),
        escapes=stats.escapes,
        decision_counts=dict(decision_log.reason_counts),
    )


def run(scale: Optional[ExperimentScale] = None,
        offered_loads: Sequence[float] = OFFERED_LOADS,
        seed: int = 1) -> DynamicTopologyResult:
    """Run the experiment and return its result object."""
    scale = scale or current_scale()
    static_points = []
    for mode in TopologyMode:
        for load in offered_loads:
            static_points.append(_run_point(
                f"static-{mode.name.lower()}", scale, load,
                pinned_config(mode), seed=seed))
    dynamic_points = [
        _run_point("dynamic", scale, load,
                   DynamicTopologyConfig(start_mode=TopologyMode.MESH),
                   seed=seed)
        for load in offered_loads
    ]
    return DynamicTopologyResult(
        static_points=static_points, dynamic_points=dynamic_points)


def main() -> None:
    """CLI entry point: run the experiment and print its table."""
    print(run().format_table())


if __name__ == "__main__":
    main()

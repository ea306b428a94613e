#!/usr/bin/env python3
"""Dynamic topologies (Section 5.1): watch the fabric change shape.

Drives a flattened butterfly with a load that ramps up and back down
over time.  The dynamic-topology controller starts in mesh mode (express
and wrap links powered off), upgrades to torus and then to the full
FBFLY as the ramp climbs, and degrades again as it falls — printing the
mode transitions and the power saved.

Run:  python examples/dynamic_topology_demo.py
"""

import random
from typing import Iterator, List, Tuple

from repro import (
    DynamicTopologyConfig,
    DynamicTopologyController,
    FbflyNetwork,
    FlattenedButterfly,
    NetworkConfig,
    TopologyMode,
)
from repro.power.channel_models import IdealChannelPower
from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.units import MS, US
from repro.workloads.base import TraceEvent

TOPOLOGY = FlattenedButterfly(k=4, n=2)   # 16 hosts, 4 switches
DURATION_NS = 3.0 * MS

#: (until_ns, offered load) ramp: quiet -> busy -> quiet.
RAMP: List[Tuple[float, float]] = [
    (1.0 * MS, 0.04),
    (2.0 * MS, 0.45),
    (3.0 * MS, 0.04),
]


def ramped_uniform_events(seed: int = 5) -> Iterator[TraceEvent]:
    """Uniform random traffic whose intensity follows the RAMP."""
    rng = random.Random(seed)
    message_bytes = 8192
    n = TOPOLOGY.num_hosts
    t = 0.0
    events = []
    for until, load in RAMP:
        rate_bytes_per_ns = load * 5.0 * n        # aggregate injection
        mean_gap = message_bytes / rate_bytes_per_ns
        while t < until:
            t += rng.expovariate(1.0 / mean_gap)
            if t >= until:
                break
            src = rng.randrange(n)
            dst = rng.randrange(n - 1)
            if dst >= src:
                dst += 1
            events.append(TraceEvent(t, src, dst, message_bytes))
    return iter(events)


def main() -> None:
    # Ring (mesh/torus) modes lack the extra virtual channels a real
    # torus router would use against toroidal deadlock; a hot escape
    # valve stands in for the escape VC.
    network = FbflyNetwork(TOPOLOGY,
                           NetworkConfig(seed=5, escape_timeout_ns=50_000.0),
                           routing_factory=RestrictedAdaptiveRouting)
    controller = DynamicTopologyController(
        network,
        DynamicTopologyConfig(
            epoch_ns=50.0 * US,
            upgrade_threshold=0.30,
            downgrade_threshold=0.08,
            start_mode=TopologyMode.MESH,
        ),
    )
    network.attach_workload(ramped_uniform_events())
    stats = network.run(until_ns=DURATION_NS)

    print("Load ramp:", " -> ".join(f"{load:.0%}" for _, load in RAMP))
    print("\nMode transitions:")
    for time_ns, mode in controller.mode_history:
        print(f"  t={time_ns / 1000:8.0f} us  ->  {mode.name}")

    print("\nTime in each mode:")
    for name, frac in controller.mode_time_fractions(DURATION_NS).items():
        print(f"  {name:6s} {frac:6.1%}")

    inter_switch = [ch.stats for ch in network.inter_switch_channels]
    power = stats.power_fraction(IdealChannelPower(),
                                 channels=inter_switch, off_power=0.0)
    print(f"\nInter-switch link power vs always-on FBFLY: {power:.1%}")
    print(f"Delivered fraction: {stats.delivered_fraction():.1%}")
    print(f"Mean message latency: "
          f"{stats.mean_message_latency_ns() / 1000:.1f} us")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: an energy-proportional flattened butterfly in ~30 lines.

Describes one run as a ``SimulationSpec`` — a 64-host FBFLY under the
paper's epoch-based link-rate controller, driven by the Search-like
trace workload — runs it with ``run_simulation``, and prints network
power relative to an always-on baseline.

Run:  python examples/quickstart.py
"""

from repro.experiments.runner import SimulationSpec, run_simulation


def main() -> None:
    # A 4-ary 3-flat (the spec's default k=4, n=3): 64 hosts on 16
    # switches, two inter-switch dimensions, so adaptive routing has
    # real path diversity.  The paper's heuristic: every 10 us epoch,
    # halve a channel's rate when utilization is under 50%, double it
    # when over; 1 us reactivation; each direction tuned on its own.
    spec = SimulationSpec(workload="search", independent_channels=True)
    print(f"Topology: {spec.build_topology()}")

    summary = run_simulation(spec)   # 2 ms of simulated time

    print(f"Messages delivered : {summary.messages_delivered:,}")
    print(f"Mean message latency: "
          f"{summary.mean_message_latency_ns / 1000:.1f} us")
    print(f"Average utilization : {summary.average_utilization:.1%}")
    print("Network power vs always-on baseline:")
    print(f"  measured channels (Fig 5 curve): "
          f"{summary.measured_power_fraction:.1%}")
    print(f"  ideal channels (power ~ rate)  : "
          f"{summary.ideal_power_fraction:.1%}")
    print("Time per link speed:")
    for rate, frac in sorted(summary.time_at_rate.items(),
                             key=lambda kv: kv[0] or 0.0):
        print(f"  {rate:>5} Gb/s: {frac:6.1%}")


if __name__ == "__main__":
    main()

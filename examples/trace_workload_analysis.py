#!/usr/bin/env python3
"""Trace tooling walkthrough: generate, persist, transform, analyze.

Shows the full trace-substrate workflow around the synthetic
production-trace substitutes:

  1. generate a Search-like trace, save it to a CSV file and load it
     back,
  2. apply the paper's transforms (placement randomization, time
     scaling), and
  3. verify the structural properties the paper attributes to its
     traces: multi-timescale burstiness and asymmetric channel use.

Every simulated experiment drives the same generator through
``SimulationSpec(workload="search")``; see ``examples/quickstart.py``.

Run:  python examples/trace_workload_analysis.py
"""

import tempfile
from pathlib import Path

from repro import FlattenedButterfly, search_workload
from repro.experiments.report import format_table
from repro.units import MS, US
from repro.workloads.burstiness import (
    burstiness_profile,
    mean_asymmetry_ratio,
)
from repro.workloads.trace import (
    load_trace,
    randomize_placement,
    save_trace,
    scale_time,
)

TOPOLOGY = FlattenedButterfly(k=4, n=3)
DURATION_NS = 2.0 * MS


def main() -> None:
    workload = search_workload(TOPOLOGY.num_hosts, seed=21)
    events = list(workload.events(DURATION_NS))
    print(f"Generated {len(events):,} injection events "
          f"({sum(e.size_bytes for e in events) / 1e6:.1f} MB)")

    # 1. Persist and reload.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "search.trace.csv"
        save_trace(path, events)
        reloaded = load_trace(path)
        assert reloaded == sorted(events)
        print(f"Round-tripped through {path.name}: {len(reloaded):,} events")

    # 2. The paper's transforms.
    remapped = randomize_placement(events, TOPOLOGY.num_hosts, seed=4)
    intensified = scale_time(events, factor=2.0)
    print(f"Transforms: randomized placement over "
          f"{TOPOLOGY.num_hosts} hosts; 2x time compression moves last "
          f"event from {events[-1].time_ns / 1000:.0f} us to "
          f"{intensified[-1].time_ns / 1000:.0f} us")

    # 3. Structural properties.
    windows = [10.0 * US, 50.0 * US, 250.0 * US, 1000.0 * US]
    profile = burstiness_profile(events, DURATION_NS, windows, 40.0,
                                 TOPOLOGY.num_hosts)
    rows = [[f"{w / 1000:.0f} us", f"{cv:.2f}"]
            for w, cv in profile.items()]
    print()
    print(format_table(
        ["Window", "Coefficient of variation"],
        rows,
        title="Burstiness across timescales (CV > 1 = bursty)"))

    ratio = mean_asymmetry_ratio(events, TOPOLOGY.num_hosts)
    print(f"\nMean per-host in/out asymmetry: {ratio:.1f}x")
    print("(the imbalance independent channel control exploits)")


if __name__ == "__main__":
    main()

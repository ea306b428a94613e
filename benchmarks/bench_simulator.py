"""Simulator microbenchmarks: the engine's raw event throughput.

Not a paper figure — these track the cost of the substrate itself so
that experiment-level benchmark movements can be attributed correctly:
a bare event chain on the engine, the same chain with cancellable
deadlines that are nearly always cancelled, one small fabric run, and
the cold start every sweep worker, CLI call and benchmark repeat pays
before its first event.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.sim.engine import Simulator

#: One k=3 n=3 uniform-workload fabric run.
NETWORK_SPEC = SimulationSpec(k=3, n=3, workload="uniform",
                              duration_ns=300_000.0, seed=1,
                              control="none", uniform_offered_load=0.2,
                              message_bytes=65536)


def _engine_events():
    """Eight interleaved event chains on a bare engine; returns the
    events fired."""
    sim = Simulator()
    count = 20_000

    def chain(remaining):
        if remaining:
            sim.schedule(1.0, chain, remaining - 1)

    for _ in range(8):
        sim.schedule(0.0, chain, count // 8)
    sim.run()
    return sim.events_fired


def test_engine_event_throughput(benchmark):
    events = benchmark.pedantic(_engine_events, rounds=5, iterations=1,
                                warmup_rounds=1)
    assert events >= 20_000


def _engine_cancel_heavy():
    """The escape-timer pattern on a bare engine: eight interleaved
    chains of items, each arming a long deadline when it starts and
    cancelling it one step later when it moves on, except every tenth
    item, whose deadline fires.  Returns the simulator after the run."""
    sim = Simulator()
    count = 20_000

    def expire():
        pass

    def advance(remaining, deadline):
        if remaining % 10:
            deadline.cancel()
        if remaining:
            sim.schedule_at(sim.now + 1.0, advance, remaining - 1,
                            sim.schedule(1_000.0, expire))

    for _ in range(8):
        sim.schedule(0.0, advance, count // 8, sim.schedule(1_000.0, expire))
    sim.run()
    return sim


def test_engine_cancel_heavy_throughput(benchmark):
    sim = benchmark.pedantic(_engine_cancel_heavy, rounds=5, iterations=1,
                             warmup_rounds=1)
    # Per chain: 2,501 steps and the 251 deadlines left armed.
    assert sim.events_fired == 8 * (2_501 + 251)
    assert sim.pending_events == 0


def test_network_packet_throughput(benchmark):
    summary = benchmark.pedantic(run_simulation, args=(NETWORK_SPEC,),
                                 rounds=3, iterations=1, warmup_rounds=1)
    assert summary.messages_delivered > 0
    assert summary.events_fired > 0


#: A fresh interpreter's set-up: import the modules the end-to-end
#: benchmark's workloads import, then build a k=2 n=2 fabric.
COLD_START = "\n".join([
    "import repro.experiments.cache",
    "import repro.experiments.runner",
    "import repro.faults.control_faults",
    "import repro.obs.session",
    "import repro.service.service",
    "import repro.sim.invariants",
    "from repro.sim.network import FbflyNetwork, NetworkConfig",
    "spec = repro.experiments.runner.SimulationSpec(k=2, n=2)",
    "network = FbflyNetwork(spec.build_topology(), NetworkConfig(seed=1))",
    "assert network.switches",
])


def _cold_start():
    """One fresh interpreter through :data:`COLD_START`."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", COLD_START], env=env, check=True)


def test_cold_start(benchmark):
    benchmark.pedantic(_cold_start, rounds=5, iterations=1,
                       warmup_rounds=1)

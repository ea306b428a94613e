"""Predictive control: the power-vs-latency frontier against the oracle.

Benchmarks the `repro predict` experiment's core comparison — the
reactive threshold controller, the EWMA predictive controller, and the
clairvoyant oracle — on the uniform workload at three offered loads.
Each point on the frontier is one full discrete-event run, so the
benchmark also tracks what a predictive sweep costs run-over-run.

Besides the pytest-benchmark timings, this module writes a
``BENCH_predict.json`` artifact (into ``$REPRO_BENCH_DIR`` or the
working directory), provenance-stamped: measured power fraction and
mean/p99 latency per controller per load, so CI can archive how the
frontier moves as the subsystem evolves.
"""

from dataclasses import replace

import pytest

from conftest import write_bench_artifact

from repro.experiments.runner import (
    CONTROL_ORACLE,
    CONTROL_PREDICT,
    SimulationSpec,
    baseline_spec,
)
from repro.experiments.sweep import SweepRunner

#: Offered loads the frontier is sampled at (fractions of bisection).
LOADS = (0.05, 0.15, 0.30)

BASE = SimulationSpec(k=2, n=3, workload="uniform",
                      duration_ns=1_500_000.0)

#: load -> controller -> point, accumulated by the benchmark below and
#: dumped once at module teardown.
_frontier = {}


def controller_specs(load):
    reactive = replace(BASE, uniform_offered_load=load)
    return {
        "baseline": baseline_spec(reactive),
        "reactive": reactive,
        "ewma": replace(reactive, control=CONTROL_PREDICT,
                        policy="ladder", target_utilization=0.5,
                        forecaster="ewma", headroom=0.1),
        "oracle": replace(reactive, control=CONTROL_ORACLE),
    }


def frontier_point(summary):
    return {
        "measured_power_fraction": summary.measured_power_fraction,
        "ideal_power_fraction": summary.ideal_power_fraction,
        "mean_latency_ns": summary.mean_message_latency_ns,
        "p99_latency_ns": summary.p99_message_latency_ns,
        "reconfigurations": summary.reconfigurations,
    }


@pytest.fixture(scope="module", autouse=True)
def bench_predict_artifact():
    """Write the BENCH_predict.json frontier artifact at teardown."""
    yield
    write_bench_artifact("BENCH_predict.json", "predict", {
        "workload": BASE.workload,
        "duration_ns": BASE.duration_ns,
        "frontier": _frontier,
    })


def _run_frontier():
    """Every controller at every load, on a fresh single-worker runner
    with the cache off; returns ``(results, events fired)``."""
    specs = [spec for load in LOADS
             for spec in controller_specs(load).values()]
    runner = SweepRunner(jobs=1, use_cache=False)
    return runner.run(specs), runner.stats.events_fired


def test_predict_frontier(benchmark):
    results, events = benchmark.pedantic(_run_frontier, rounds=1,
                                         iterations=1, warmup_rounds=0)
    assert events > 0

    for load in LOADS:
        specs = controller_specs(load)
        points = {name: frontier_point(results[spec])
                  for name, spec in specs.items()}
        _frontier[f"{load:g}"] = points

        # Sanity, not acceptance: every controlled run must save power
        # over the full-rate baseline, and latency must stay finite.
        for name, point in points.items():
            if name != "baseline":
                assert (point["measured_power_fraction"]
                        < points["baseline"]["measured_power_fraction"])
            assert point["mean_latency_ns"] > 0.0

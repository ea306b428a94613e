"""Ablation: congestion sensors (Section 3.2/3.3).

The paper's claim under test: utilization alone is a sufficient demand
estimator — richer sensors must not beat it by a meaningful margin.
"""

from conftest import run_experiment


def test_sensor_ablation(benchmark, scale):
    result = run_experiment(benchmark, "sensors", scale)
    print("\n" + result.format_table())

    utilization = result.runs["utilization"]
    for run in result.runs.values():
        # No sensor saves meaningfully more power than plain utilization.
        assert run.ideal_power_fraction > \
            0.8 * utilization.ideal_power_fraction
    # And utilization keeps throughput at least on par with the best.
    best_delivery = max(r.delivered_fraction for r in result.runs.values())
    assert utilization.delivered_fraction > 0.95 * best_delivery

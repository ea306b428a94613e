"""Ablation: energy-aware routing (Section 5.1's open problem)."""

from conftest import run_experiment


def test_energy_aware_routing(benchmark, scale):
    result = run_experiment(benchmark, "energy-aware", scale)
    print("\n" + result.format_table())

    aware = result.runs["energy-aware"]
    plain = result.runs["adaptive"]
    # Consolidation must not cost power or lose traffic.
    assert aware.ideal_power_fraction <= 1.1 * plain.ideal_power_fraction
    assert aware.delivered_fraction > 0.95 * plain.delivered_fraction

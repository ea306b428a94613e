"""Ablation: channel-load asymmetry (Section 3.3.1).

Quantifies the imbalance between the two directions of every link on a
baseline run — the phenomenon that makes independent channel control
(Figure 7b) worth building.
"""

from conftest import run_experiment


def test_asymmetry_search(benchmark, scale):
    result = run_experiment(benchmark, "asymmetry", scale)
    print("\n" + result.format_table())
    # "many traffic patterns show very asymmetric use"
    assert result.fraction_2x > 0.3
    assert result.mean_hot_utilization > 1.5 * result.mean_cold_utilization

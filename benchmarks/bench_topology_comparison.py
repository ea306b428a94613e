"""Ablation: the epoch controller on FBFLY vs a folded-Clos (Section 3.2).

Both fabrics must save large amounts of power with the same controller —
the paper's mechanisms are topology-portable — while each keeps its
throughput relative to its own baseline.
"""

from conftest import run_experiment


def test_topology_comparison(benchmark, scale):
    result = run_experiment(benchmark, "topology-comparison", scale)
    print("\n" + result.format_table())

    for run in result.fabrics.values():
        assert run.controlled.ideal_power_fraction < 0.4
        assert run.controlled.delivered_fraction > \
            0.9 * run.baseline.delivered_fraction

    fbfly = result.fabrics["fbfly"]
    fat_tree = result.fabrics["fat-tree"]
    # Both fabrics should land in the same savings class.
    ratio = (fbfly.controlled.ideal_power_fraction
             / fat_tree.controlled.ideal_power_fraction)
    assert 0.3 < ratio < 3.0

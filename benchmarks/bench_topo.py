"""Demand-aware topology control: the third-control-axis campaign.

Static FBFLY, statically degraded, and demand-aware topology control
across skewed, shifting and diurnal traffic matrices; the campaign's
verdict (energy win on the gated matrices, bounded latency, zero
partitions) is asserted here as well as frozen in
``tests/golden/demand_topology.json``.
"""

from conftest import run_experiment


def test_demand_topology(benchmark, scale):
    result = run_experiment(benchmark, "demand-topology", scale)
    print("\n" + result.format_table())
    for line in result.verdict_lines():
        print(line)

    expectations = result.expectations()
    # The demand-aware arm beats static power on every gated matrix
    # while staying inside the latency bound...
    assert expectations["demand_wins"]
    # ...and no arm — including the aggressive static degradation —
    # ever partitions the fabric or trips the connectivity guard.
    assert expectations["safe_everywhere"]
    assert result.ok
    for label in result.by_label:
        assert "safety" not in result.violations(label), label

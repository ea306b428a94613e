"""Figure 8: network power when dynamically detuning FBFLY links.

Regenerates both panels (measured channels / ideal channels) for the
three workloads, and asserts the paper's shape: trace-workload power
approaches the slowest mode's floor under measured channels, drops to a
small multiple of average utilization under ideal channels, and
independent channel control dominates paired control.
"""

from conftest import run_experiment


def test_figure8(benchmark, scale):
    result = run_experiment(benchmark, "figure8", scale)
    print("\n" + result.format_table())

    for name in ("advert", "search"):
        row = result.rows_by_workload[name]
        # (a) measured channels: power approaches the 42% floor.
        assert 0.42 <= row.independent.measured_power_fraction < 0.60
        # (b) ideal channels: the paper's 6x-class reduction.
        assert row.reduction_factor_ideal_independent > 4.0
        # Power can't beat the ideal (= average utilization) floor.
        assert row.independent.ideal_power_fraction > \
            row.baseline_utilization

    uniform = result.rows_by_workload["uniform"]
    # Paper: 36% of baseline for Uniform with ideal independent channels.
    assert 0.25 < uniform.independent.ideal_power_fraction < 0.45

    # Independent control never loses to paired control.
    for row in result.rows_by_workload.values():
        assert row.independent.ideal_power_fraction <= \
            row.paired.ideal_power_fraction * 1.02

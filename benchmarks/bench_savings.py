"""Headline dollar claims: simulated savings priced at the 32k scale.

Paper anchors: $2.4M for a 6x reduction, $2.5M for 6.6x, and "up to
$3M over a four-year lifetime" for topology + rate scaling combined.
"""

from conftest import run_experiment


def test_savings_projection(benchmark, scale):
    result = run_experiment(benchmark, "savings", scale)
    print("\n" + result.format_table())

    # The Table 1 topology savings stack ($1.6M).
    assert abs(result.topology_savings_dollars - 1.6e6) < 0.05e6

    for name in ("advert", "search"):
        row = result.rows_by_workload[name]
        # Ideal channels: the paper's $2.4M-$2.5M class of savings.
        assert 2.0e6 < row.ideal_savings_dollars < 3.0e6
        # Measured channels + topology: the conclusion's "up to $3M".
        combined = (row.measured_savings_dollars
                    + result.topology_savings_dollars)
        assert 2.7e6 < combined < 3.6e6

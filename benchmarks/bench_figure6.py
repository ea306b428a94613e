"""Figure 6: ITRS bandwidth trend."""

from conftest import run_experiment


def test_figure6(benchmark):
    result = run_experiment(benchmark, "figure6")
    print("\n" + result.format_table())
    assert result.series[-1].io_bandwidth_tbps == 160.0
    assert result.cagr > 0.2

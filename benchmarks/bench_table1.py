"""Table 1: FBFLY vs folded-Clos parts and power at fixed bisection.

Regenerates the full table and asserts the paper's exact values, so a
regression in the analytic models fails the benchmark run loudly.
"""

from conftest import run_experiment

from repro.experiments import table1


def test_table1(benchmark):
    result = run_experiment(benchmark, "table1")
    print("\n" + result.format_table())

    assert result.clos["switch_chips"] == 8235
    assert result.fbfly["switch_chips"] == 4096
    assert result.clos["total_power_watts"] == 1_146_880
    assert result.fbfly["total_power_watts"] == 737_280
    assert abs(result.fbfly_savings_dollars - 1.607e6) < 0.01e6


def test_table1_scaling_sweep(benchmark):
    """Ablation: the power advantage holds across cluster sizes.

    Exact host-count parity is only possible when the target is a
    perfect k**5, so the size-fair metric is Table 1's bottom row:
    watts per Gb/s of bisection bandwidth.
    """

    def sweep():
        return [table1.run(num_hosts=n) for n in (8192, 16384, 32768)]

    results = benchmark(sweep)
    for result in results:
        assert result.fbfly["watts_per_bisection_gbps"] < \
            result.clos["watts_per_bisection_gbps"]

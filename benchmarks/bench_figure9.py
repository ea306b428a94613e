"""Figure 9: latency sensitivity to target utilization and reactivation.

The expensive benchmark: a grid of (workload x target) and
(workload x reactivation) runs, each compared against its baseline.
Asserts the paper's shape: added latency grows with target utilization
and grows steeply (toward milliseconds) as reactivation reaches 100 us.
"""

from conftest import run_experiment


def test_figure9(benchmark, scale):
    result = run_experiment(benchmark, "figure9", scale)
    print("\n" + result.format_table())

    for workload in result.workloads:
        # 9a: added latency does not shrink as the target rises.
        added = [result.by_target[(workload, t)].added_mean_latency_ns
                 for t in result.targets]
        assert added[-1] >= added[0]
        # At 50% target the penalty is tens of microseconds, not ms.
        mid = result.by_target[(workload, 0.5)].added_mean_latency_ns
        assert 0.0 < mid < 500_000.0

        # 9b: added latency grows with reactivation time, and the 100 us
        # point is "an overhead that can impact many ... applications".
        series = [result.by_reactivation[(workload, r)]
                  .added_mean_latency_ns for r in result.reactivations_ns]
        assert series[-1] > series[0]
        assert series[-1] > 5 * series[1]   # 100 us >> 1 us penalty

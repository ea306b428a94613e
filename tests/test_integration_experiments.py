"""Integration: simulation-backed experiment modules at a tiny scale.

Each experiment's ``run`` is exercised on a 2-ary-3-flat over a short
horizon — enough to validate plumbing and directional results without
paying for the full default scale in the unit-test suite.
"""

import pytest

from repro.core.dynamic_topology import TopologyMode
from repro.experiments import (
    asymmetry,
    dynamic_topology,
    energy_aware,
    figure7,
    figure8,
    figure9,
    lane_ladder,
    policies,
    routing_ablation,
    savings,
    sensors,
    topology_comparison,
)
from repro.experiments.scale import ExperimentScale
from repro.units import MS

TINY = ExperimentScale("tiny", k=2, n=3, duration_ns=0.5 * MS)


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7.run(scale=TINY)

    def test_fractions_sum_to_one(self, result):
        assert sum(result.paired.time_at_rate.values()) == \
            pytest.approx(1.0)
        assert sum(result.independent.time_at_rate.values()) == \
            pytest.approx(1.0)

    def test_slowest_speed_dominates(self, result):
        assert result.paired.time_at_rate.get(2.5, 0.0) > 0.4

    def test_independent_no_more_fast_time(self, result):
        assert result.fast_time(result.independent) <= \
            result.fast_time(result.paired) + 0.02

    def test_table_renders(self, result):
        text = result.format_table()
        assert "2.5 Gb/s" in text and "40 Gb/s" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8.run(scale=TINY)

    def test_all_workloads_present(self, result):
        assert set(result.rows_by_workload) == {
            "uniform", "advert", "search"}

    def test_power_ordering_measured_above_ideal(self, result):
        for row in result.rows_by_workload.values():
            assert row.paired.measured_power_fraction > \
                row.paired.ideal_power_fraction

    def test_independent_no_worse_than_paired(self, result):
        for row in result.rows_by_workload.values():
            assert row.independent.ideal_power_fraction <= \
                row.paired.ideal_power_fraction * 1.05

    def test_trace_workloads_big_reduction(self, result):
        for name in ("advert", "search"):
            row = result.rows_by_workload[name]
            assert row.reduction_factor_ideal_independent > 3.0

    def test_power_above_ideal_floor(self, result):
        for row in result.rows_by_workload.values():
            assert row.independent.ideal_power_fraction >= \
                row.baseline_utilization * 0.8

    def test_references(self, result):
        assert result.always_slowest_measured == pytest.approx(0.42)
        assert result.always_slowest_ideal == pytest.approx(0.0625)

    def test_table_renders(self, result):
        assert "Figure 8" in result.format_table()


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return figure9.run(
            scale=TINY,
            workloads=("search",),
            targets=(0.25, 0.75),
            reactivations_ns=(100.0, 10_000.0),
        )

    def test_requested_grid_present(self, result):
        assert set(result.by_target) == {("search", 0.25), ("search", 0.75)}
        assert set(result.by_reactivation) == {
            ("search", 100.0), ("search", 10_000.0)}

    def test_longer_reactivation_hurts_latency(self, result):
        fast = result.by_reactivation[("search", 100.0)]
        slow = result.by_reactivation[("search", 10_000.0)]
        assert slow.added_mean_latency_ns > fast.added_mean_latency_ns

    def test_added_latency_positive(self, result):
        for point in result.by_target.values():
            assert point.added_mean_latency_ns > 0.0

    def test_table_renders(self, result):
        text = result.format_table()
        assert "Figure 9a" in text and "Figure 9b" in text


class TestPolicies:
    @pytest.fixture(scope="class")
    def result(self):
        return policies.run(scale=TINY, workload="search",
                            policies=("threshold", "aggressive"))

    def test_policies_present(self, result):
        assert set(result.by_policy) == {"threshold", "aggressive"}

    def test_all_policies_save_power(self, result):
        for summary in result.by_policy.values():
            assert summary.measured_power_fraction < 0.9

    def test_table_renders(self, result):
        assert "ablation" in result.format_table()


class TestAsymmetry:
    def test_search_traffic_is_asymmetric(self):
        result = asymmetry.run(scale=TINY, workload="search")
        assert len(result.pair_ratios) > 0
        assert result.mean_hot_utilization > result.mean_cold_utilization
        assert "asymmetry" in result.format_table()

    @pytest.mark.parametrize("ratios, median, p90", [
        ([3.0], "3.00x", "3.00x"),
        ([1.0, 3.0], "2.00x", "2.80x"),
    ])
    def test_rows_with_one_or_two_pairs(self, ratios, median, p90):
        # A linear 90th percentile of one point is that point; of two,
        # 90% of the way from the lower to the upper.
        result = asymmetry.AsymmetryResult(
            workload="search", pair_ratios=ratios, fraction_2x=0.5,
            mean_hot_utilization=0.2, mean_cold_utilization=0.05)
        assert result.rows() == [
            ["median direction ratio", median, ""],
            ["90th pct direction ratio", p90, ""],
            ["pairs with >=2x imbalance", "50.0%", ""],
            ["mean util (hot direction)", "20.0%", ""],
            ["mean util (cold direction)", "5.0%", ""],
        ]

    def test_rows_with_no_pairs(self):
        result = asymmetry.AsymmetryResult(
            workload="search", pair_ratios=[], fraction_2x=0.0,
            mean_hot_utilization=0.0, mean_cold_utilization=0.0)
        assert result.rows() == [["(no loaded pairs)", "-", "-"]]


class TestSavings:
    def test_projection_scales_the_full_budget(self):
        result = savings.run(scale=TINY)
        assert result.budget.full_watts == 737_280
        for row in result.rows_by_workload.values():
            assert row.ideal_savings_dollars > \
                row.measured_savings_dollars
            assert row.measured_savings_dollars > 0
        assert "32k-host" in result.format_table()


class TestSensors:
    def test_all_sensors_run_and_save_power(self):
        result = sensors.run(scale=TINY)
        assert set(result.runs) == {
            "utilization", "queue-occupancy", "credit-stall", "composite"}
        for run in result.runs.values():
            assert run.reconfigurations > 0
        assert "sensor" in result.format_table()


class TestLaneLadder:
    def test_lane_aware_cuts_stall_time(self):
        result = lane_ladder.run(scale=TINY)
        scalar = result.runs["scalar 1us"]
        lane = result.runs["lane-aware"]
        assert lane.stall_ns_total < scalar.stall_ns_total
        assert abs(lane.power_fraction - scalar.power_fraction) < 0.1
        assert "lane-aware" in result.format_table()


class TestRoutingAblation:
    def test_adaptive_never_delivers_less(self):
        result = routing_ablation.run(scale=TINY)
        for react in result.reactivations_ns:
            assert result.delivered("adaptive", react) >= \
                0.95 * result.delivered("dimension-order", react)
        assert "Routing" in result.format_table()


class TestEnergyAware:
    def test_runs_and_formats(self):
        result = energy_aware.run(scale=TINY)
        assert set(result.runs) == {"adaptive", "energy-aware"}
        assert "energy-aware" in result.format_table()


class TestTopologyComparison:
    def test_both_fabrics_save_power(self):
        result = topology_comparison.run(scale=TINY)
        assert set(result.fabrics) == {"fbfly", "fat-tree"}
        for run in result.fabrics.values():
            assert run.controlled.ideal_power_fraction < 0.5
        assert "fat-tree" in result.format_table()


class TestDynamicTopology:
    @pytest.fixture(scope="class")
    def result(self):
        # k=2 has no express/wrap links; use k=4, n=2 (16 hosts).
        scale = ExperimentScale("tiny-dyn", k=4, n=2, duration_ns=0.5 * MS)
        return dynamic_topology.run(scale=scale, offered_loads=(0.05, 0.3))

    def test_static_fbfly_full_power(self, result):
        fbfly_rows = [p for p in result.static_points
                      if p.label == "static-fbfly"]
        for p in fbfly_rows:
            assert p.power_true_off == pytest.approx(1.0)

    def test_static_mesh_cheapest(self, result):
        by_label = {}
        for p in result.static_points:
            by_label.setdefault(p.label, []).append(p.power_true_off)
        assert max(by_label["static-mesh"]) < min(by_label["static-fbfly"])

    def test_mesh_saturates_at_high_load(self, result):
        mesh_high = [p for p in result.static_points
                     if p.label == "static-mesh"
                     and p.offered_load == 0.3][0]
        fbfly_high = [p for p in result.static_points
                      if p.label == "static-fbfly"
                      and p.offered_load == 0.3][0]
        assert mesh_high.delivered_fraction < \
            fbfly_high.delivered_fraction

    def test_dynamic_adapts_mode_to_load(self, result):
        low, high = result.dynamic_points
        assert low.offered_load < high.offered_load
        low_fbfly = low.mode_time_fractions[TopologyMode.FBFLY]
        high_fbfly = high.mode_time_fractions[TopologyMode.FBFLY]
        assert high_fbfly > low_fbfly

    def test_dynamic_saves_power_at_low_load(self, result):
        low = result.dynamic_points[0]
        assert low.power_true_off < 0.9

    def test_table_renders(self, result):
        text = result.format_table()
        assert "static" in text and "dynamic" in text

"""Regret accounting and its metrics/summary surfaces."""

from __future__ import annotations

import json
import math

from repro.experiments.predictive import PredictiveResult, run as run_predictive
from repro.predict.regret import (
    ERROR_BUCKETS_GBPS,
    ForecastAccountant,
    ForecastErrorStats,
    energy_regret,
    latency_regret,
)


class TestForecastErrorStats:
    def test_moments_and_under_provisioning(self):
        stats = ForecastErrorStats()
        stats.observe(predicted=10.0, observed=8.0, provisioned=11.0)
        stats.observe(predicted=4.0, observed=8.0, provisioned=4.4)
        assert stats.count == 2
        assert stats.bias_gbps == ((10.0 - 8.0) + (4.0 - 8.0)) / 2
        assert stats.mae_gbps == (2.0 + 4.0) / 2
        assert stats.rmse_gbps == math.sqrt((4.0 + 16.0) / 2)
        assert stats.under_count == 1  # only the second epoch saturated

    def test_histogram_buckets_cover_everything(self):
        stats = ForecastErrorStats()
        for error in (0.1, 0.3, 3.0, 100.0):
            stats.observe(predicted=error, observed=0.0, provisioned=0.0)
        assert sum(stats.bucket_counts) == 4
        assert stats.bucket_counts[-1] == 1  # 100 Gb/s -> +inf bucket
        assert len(stats.bucket_counts) == len(ERROR_BUCKETS_GBPS)

    def test_merge_equals_combined_stream(self):
        a, b, combined = (ForecastErrorStats() for _ in range(3))
        for i in range(5):
            a.observe(float(i), 1.0, 1.0)
            combined.observe(float(i), 1.0, 1.0)
        for i in range(7):
            b.observe(2.0, float(i), float(i))
            combined.observe(2.0, float(i), float(i))
        a.merge(b)
        assert a.to_dict() == combined.to_dict()

    def test_to_dict_is_json_safe(self):
        stats = ForecastErrorStats()
        stats.observe(1e9, 0.0, 0.0)  # lands in the inf bucket
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["abs_error_hist"][-1] == ["inf", 1]


class TestForecastAccountant:
    def test_per_group_ledger_and_fleet_rollup(self):
        accountant = ForecastAccountant()
        accountant.observe("g0", predicted=5.0, observed=3.0,
                           provisioned=5.5)
        accountant.observe("g1", predicted=1.0, observed=4.0,
                           provisioned=1.1)
        fleet = accountant.fleet()
        assert fleet.count == 2
        assert fleet.under_count == 1
        payload = accountant.to_dict()
        assert sorted(payload["per_link"]) == ["g0", "g1"]
        assert payload["fleet"]["count"] == 2


class _Summary:
    def __init__(self, measured, ideal, mean_ns, p99_ns, predict=None):
        self.measured_power_fraction = measured
        self.ideal_power_fraction = ideal
        self.mean_message_latency_ns = mean_ns
        self.p99_message_latency_ns = p99_ns
        self.predict = predict


class TestRegret:
    def test_energy_and_latency_regret_arithmetic(self):
        oracle = _Summary(0.40, 0.10, 0.0, 0.0)
        baseline = _Summary(1.0, 1.0, 1000.0, 5000.0)
        controller = _Summary(0.46, 0.13, 1400.0, 6000.0)
        energy = energy_regret(controller, oracle)
        assert energy["measured"] == 0.46 - 0.40
        assert energy["ideal"] == 0.13 - 0.10
        latency = latency_regret(controller, baseline)
        assert latency["mean_ns"] == 400.0
        assert latency["p99_ns"] == 1000.0


class TestPredictiveExperiment:
    def test_small_experiment_end_to_end(self):
        # One tiny end-to-end pass through the experiment module:
        # every controller present, oracle floor respected, dominance
        # helper runs (whatever its verdict at this micro-scale).  The
        # search trace keeps utilization low enough for the empirical
        # oracle floor to hold (see tests/test_predict_oracle.py).
        from repro.experiments.scale import ExperimentScale
        scale = ExperimentScale("tiny", k=2, n=3, duration_ns=200_000.0)
        result = run_predictive(scale=scale, workload="search",
                                forecasters=("last_value",))
        assert isinstance(result, PredictiveResult)
        labels = [row.label for row in result.report.rows]
        assert "reactive" in labels and "oracle" in labels
        assert "predict/last_value" in labels
        for label, summary in result.controllers().items():
            assert (result.oracle.measured_power_fraction
                    <= summary.measured_power_fraction + 1e-12), label
        assert result.format_table()
        result.dominance()

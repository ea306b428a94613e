"""Burstiness and asymmetry analysis utilities."""

import pytest

from repro.workloads.base import TraceEvent
from repro.workloads.burstiness import (
    burstiness_profile,
    coefficient_of_variation,
    host_asymmetry,
    mean_asymmetry_ratio,
    utilization_series,
)


class TestUtilizationSeries:
    def test_bytes_fall_into_correct_windows(self):
        events = [TraceEvent(5.0, 0, 1, 100), TraceEvent(15.0, 0, 1, 300)]
        series = utilization_series(events, duration_ns=20.0, window_ns=10.0,
                                    line_rate_gbps=8.0, num_hosts=1)
        # Capacity per window: 1 host * 1 B/ns * 10 ns = 10 B.
        assert series[0] == pytest.approx(10.0)
        assert series[1] == pytest.approx(30.0)

    def test_total_preserved(self):
        events = [TraceEvent(float(i), 0, 1, 50) for i in range(100)]
        series = utilization_series(events, 100.0, 10.0, 8.0, 1)
        assert sum(series) * 10.0 == pytest.approx(100 * 50)

    def test_events_beyond_duration_ignored(self):
        events = [TraceEvent(150.0, 0, 1, 100)]
        series = utilization_series(events, 100.0, 10.0, 8.0, 1)
        assert sum(series) == 0.0

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            utilization_series([], 0.0, 10.0, 40.0, 1)
        with pytest.raises(ValueError):
            utilization_series([], 10.0, 0.0, 40.0, 1)


class TestCoefficientOfVariation:
    def test_constant_series_has_zero_cv(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_zero_series(self):
        assert coefficient_of_variation([0.0] * 10) == 0.0

    def test_bursty_series_has_high_cv(self):
        bursty = [0.0] * 9 + [10.0]
        smooth = [1.0] * 10
        # Mean 1, population variance (9 * 1 + 81) / 10 = 9.
        assert coefficient_of_variation(bursty) == pytest.approx(3.0)
        assert coefficient_of_variation(bursty) > \
            coefficient_of_variation(smooth)

    def test_empty_series(self):
        assert coefficient_of_variation([]) == 0.0


class TestBurstinessProfile:
    def test_profile_keys_are_windows(self):
        events = [TraceEvent(float(i * 7), 0, 1, 100) for i in range(50)]
        profile = burstiness_profile(events, 400.0, [10.0, 50.0], 40.0, 2)
        assert set(profile) == {10.0, 50.0}

    def test_poisson_like_cv_decays_with_window(self):
        import random
        rng = random.Random(1)
        t, events = 0.0, []
        while t < 100_000.0:
            t += rng.expovariate(1 / 50.0)
            events.append(TraceEvent(t, 0, 1, 100))
        profile = burstiness_profile(
            events, 100_000.0, [100.0, 10_000.0], 40.0, 1)
        assert profile[10_000.0] < profile[100.0]


class TestAsymmetry:
    def test_host_totals(self):
        events = [TraceEvent(0.0, 0, 1, 100), TraceEvent(1.0, 0, 2, 50)]
        injected, received = host_asymmetry(events, 3)
        assert injected[0] == 150 and received[0] == 0
        assert received[1] == 100 and received[2] == 50

    def test_symmetric_traffic_ratio_one(self):
        events = [TraceEvent(0.0, 0, 1, 100), TraceEvent(1.0, 1, 0, 100)]
        assert mean_asymmetry_ratio(events, 2) == pytest.approx(1.0)

    def test_asymmetric_traffic_ratio_large(self):
        events = [TraceEvent(0.0, 0, 1, 1000), TraceEvent(1.0, 1, 0, 100)]
        assert mean_asymmetry_ratio(events, 2) == pytest.approx(10.0)

    def test_hosts_without_bidirectional_traffic_skipped(self):
        events = [TraceEvent(0.0, 0, 1, 1000)]
        assert mean_asymmetry_ratio(events, 2) == 1.0

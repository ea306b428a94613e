"""Property tests for the demand forecasters (repro.predict).

The predictive controller's replay/caching guarantees rest on the
forecasters being pure functions of their observation history, and its
safety rests on forecasts staying non-negative and bounded.  Hypothesis
drives arbitrary demand series through every registered forecaster to
pin those properties down, plus convergence behaviour per model.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.predict.forecasters import (
    FORECASTERS,
    EwmaForecaster,
    HoltWintersForecaster,
    LastValueForecaster,
    SlidingQuantileForecaster,
    build_forecaster,
)

#: Demand values a link could plausibly report (Gb/s), zero included.
demands = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
demand_series = st.lists(demands, min_size=1, max_size=50)

FORECASTER_NAMES = sorted(FORECASTERS)


def run_series(forecaster, series, key="g"):
    return [forecaster.update(key, value) for value in series]


class TestProtocolProperties:
    @pytest.mark.parametrize("name", FORECASTER_NAMES)
    @given(series=demand_series)
    @settings(max_examples=40, deadline=None)
    def test_deterministic_replay(self, name, series):
        # Two fresh instances fed the same history agree bit-for-bit —
        # the property the sweep cache and golden tests rely on.
        a = run_series(build_forecaster(name), series)
        b = run_series(build_forecaster(name), series)
        assert a == b

    @pytest.mark.parametrize("name", FORECASTER_NAMES)
    @given(series=demand_series)
    @settings(max_examples=40, deadline=None)
    def test_output_non_negative_and_finite(self, name, series):
        for forecast in run_series(build_forecaster(name), series):
            assert forecast >= 0.0
            assert math.isfinite(forecast)

    @pytest.mark.parametrize("name", FORECASTER_NAMES)
    @given(series=demand_series)
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_history_envelope(self, name, series):
        # No model here extrapolates beyond twice the largest demand
        # ever seen (Holt's trend can overshoot the max, but only by
        # the level-to-level slope it actually observed).
        peak = max(series)
        for forecast in run_series(build_forecaster(name), series):
            assert forecast <= 2.0 * peak + 1e-9

    @pytest.mark.parametrize("name", FORECASTER_NAMES)
    @given(value=demands, others=demand_series)
    @settings(max_examples=40, deadline=None)
    def test_per_key_state_is_independent(self, name, value, others):
        isolated = build_forecaster(name)
        shared = build_forecaster(name)
        for i, other in enumerate(others):
            shared.update(f"noise-{i % 3}", other)
        assert isolated.update("g", value) == shared.update("g", value)

    @pytest.mark.parametrize("name", FORECASTER_NAMES)
    @given(value=demands)
    @settings(max_examples=40, deadline=None)
    def test_constant_series_converges_to_constant(self, name, value):
        forecaster = build_forecaster(name)
        forecast = value
        for _ in range(40):
            forecast = forecaster.update("g", value)
        assert forecast == pytest.approx(value, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("name", FORECASTER_NAMES)
    def test_rejects_negative_and_nan(self, name):
        forecaster = build_forecaster(name)
        with pytest.raises(ValueError):
            forecaster.update("g", -1.0)
        with pytest.raises(ValueError):
            forecaster.update("g", float("nan"))


class TestLastValue:
    @given(series=demand_series)
    @settings(max_examples=40, deadline=None)
    def test_identity_bitwise(self, series):
        # The reactive-equivalence guarantee: the observation comes
        # back untouched, not merely approximately equal.
        assert run_series(LastValueForecaster(), series) == series


class TestEwma:
    def test_first_observation_initializes(self):
        assert EwmaForecaster(alpha=0.3).update("g", 7.0) == 7.0

    def test_smooths_toward_new_level(self):
        forecaster = EwmaForecaster(alpha=0.5)
        forecaster.update("g", 0.0)
        assert forecaster.update("g", 8.0) == 4.0
        assert forecaster.update("g", 8.0) == 6.0

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_validated(self, alpha):
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=alpha)


class TestHoltWinters:
    def test_tracks_linear_ramp_ahead_of_last_value(self):
        # On a steady ramp the trend term must forecast *above* the
        # latest observation — that is the whole point of the model.
        forecaster = HoltWintersForecaster(alpha=0.5, beta=0.5)
        forecast = 0.0
        for step in range(1, 30):
            forecast = forecaster.update("g", float(step))
        assert forecast > 29.0

    def test_clamps_negative_extrapolation(self):
        forecaster = HoltWintersForecaster(alpha=0.9, beta=0.9)
        for value in (100.0, 50.0, 10.0, 0.0, 0.0):
            forecast = forecaster.update("g", value)
        assert forecast == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0}, {"alpha": 1.1}, {"beta": 0.0}, {"beta": -0.2},
    ])
    def test_parameters_validated(self, kwargs):
        with pytest.raises(ValueError):
            HoltWintersForecaster(**kwargs)


class TestSlidingQuantile:
    @given(series=demand_series, window=st.integers(1, 8),
           quantile=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_forecast_is_an_observed_value_in_window(
            self, series, window, quantile):
        forecaster = SlidingQuantileForecaster(window=window,
                                               quantile=quantile)
        for i, value in enumerate(series):
            forecast = forecaster.update("g", value)
            recent = series[max(0, i - window + 1):i + 1]
            assert forecast in recent  # nearest-rank: never interpolates

    def test_upper_quantile_holds_through_gaps(self):
        # One OFF epoch inside the window must not drop the forecast —
        # the property that makes this the bursty-trace forecaster.
        forecaster = SlidingQuantileForecaster(window=8, quantile=0.9)
        for value in (10.0, 10.0, 10.0, 0.0):
            forecast = forecaster.update("g", value)
        assert forecast == 10.0

    def test_max_quantile_is_window_max(self):
        forecaster = SlidingQuantileForecaster(window=4, quantile=1.0)
        for value in (3.0, 9.0, 1.0):
            forecast = forecaster.update("g", value)
        assert forecast == 9.0

    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"quantile": 0.0}, {"quantile": 1.5},
    ])
    def test_parameters_validated(self, kwargs):
        with pytest.raises(ValueError):
            SlidingQuantileForecaster(**kwargs)


class TestRegistry:
    def test_build_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown forecaster"):
            build_forecaster("crystal_ball")

"""The demand-matrix estimator: smoothing, forecasts, conservation.

Property tests (hypothesis) pin the estimator's two determinism
contracts: the raw observation plane conserves injected telemetry
exactly (row/column sums match what was fed in), and EWMA/forecast
state is independent of the observation mapping's insertion order —
the ``PYTHONHASHSEED`` stability the campaign verdict relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.predict.forecasters import build_forecaster
from repro.topo.demand import DemandMatrixEstimator

N = 4


def pairs_strategy(num_groups=N):
    ids = st.integers(0, num_groups - 1)
    return st.dictionaries(
        st.tuples(ids, ids),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        max_size=num_groups * num_groups)


class TestValidation:
    def test_rejects_zero_groups(self):
        with pytest.raises(ValueError):
            DemandMatrixEstimator(0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            DemandMatrixEstimator(2, ewma_alpha=0.0)
        with pytest.raises(ValueError):
            DemandMatrixEstimator(2, ewma_alpha=1.5)

    def test_rejects_out_of_range_pairs(self):
        est = DemandMatrixEstimator(2)
        with pytest.raises(ValueError):
            est.observe({(0, 2): 1.0})
        with pytest.raises(ValueError):
            est.demand(2, 0)

    def test_rejects_negative_demand(self):
        est = DemandMatrixEstimator(2)
        with pytest.raises(ValueError):
            est.observe({(0, 1): -1.0})


class TestSmoothing:
    def test_first_observation_initializes_the_ewma(self):
        est = DemandMatrixEstimator(N, ewma_alpha=0.5)
        est.observe({(0, 1): 8.0})
        assert est.demand(0, 1) == 8.0

    def test_ewma_converges_toward_a_level_shift(self):
        est = DemandMatrixEstimator(N, ewma_alpha=0.5)
        est.observe({(0, 1): 8.0})
        for _ in range(20):
            est.observe({(0, 1): 2.0})
        assert est.demand(0, 1) == pytest.approx(2.0, abs=1e-3)

    def test_absent_pairs_decay_toward_zero(self):
        est = DemandMatrixEstimator(N, ewma_alpha=0.5)
        est.observe({(0, 1): 8.0})
        for _ in range(20):
            est.observe({})
        assert est.demand(0, 1) < 1e-3

    def test_unobserved_pair_reads_zero(self):
        est = DemandMatrixEstimator(N)
        assert est.demand(2, 3) == 0.0
        assert est.forecast(2, 3) == 0.0

    def test_matrix_shape_and_values(self):
        est = DemandMatrixEstimator(3, ewma_alpha=1.0)
        est.observe({(0, 1): 4.0, (2, 0): 6.0})
        matrix = est.matrix()
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)
        assert matrix[0][1] == 4.0
        assert matrix[2][0] == 6.0
        assert matrix[1][1] == 0.0


class TestForecasts:
    def test_forecast_defaults_to_the_ewma_value(self):
        est = DemandMatrixEstimator(N, ewma_alpha=0.5)
        est.observe({(0, 1): 8.0})
        est.observe({(0, 1): 4.0})
        assert est.forecast(0, 1) == est.demand(0, 1)

    def test_attached_forecaster_drives_the_forecast(self):
        est = DemandMatrixEstimator(
            N, forecaster=build_forecaster("last_value"))
        est.observe({(0, 1): 8.0})
        est.observe({(0, 1): 4.0})
        assert est.forecast(0, 1) == 4.0

    def test_pair_forecast_is_the_worst_direction(self):
        est = DemandMatrixEstimator(N, ewma_alpha=1.0)
        est.observe({(0, 1): 2.0, (1, 0): 9.0})
        assert est.pair_forecast(0, 1) == 9.0
        assert est.pair_forecast(1, 0) == 9.0

    def test_group_pressure_sums_both_directions(self):
        est = DemandMatrixEstimator(N, ewma_alpha=1.0)
        est.observe({(0, 1): 2.0, (2, 0): 3.0, (1, 2): 5.0})
        assert est.group_pressure(0) == pytest.approx(5.0)
        assert est.group_pressure(3) == 0.0

    def test_group_pressure_ignores_self_traffic(self):
        est = DemandMatrixEstimator(N, ewma_alpha=1.0)
        est.observe({(1, 1): 7.0, (1, 2): 3.0})
        assert est.group_pressure(1) == pytest.approx(3.0)


class TestConservationProperties:
    """Satellite: the raw plane is lossless (hypothesis)."""

    @given(pairs_strategy())
    @settings(max_examples=60, deadline=None)
    def test_row_and_column_sums_match_injected_telemetry(self, flows):
        # The raw plane keeps every injected flow unchanged, so every
        # row and column sum over it matches the telemetry's.
        est = DemandMatrixEstimator(N)
        est.observe(flows)
        assert est.last_observed() == flows

    @given(st.lists(pairs_strategy(), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_latest_epoch_only_in_the_raw_plane(self, epochs):
        est = DemandMatrixEstimator(N)
        for flows in epochs:
            est.observe(flows)
        expected = epochs[-1] if epochs else {}
        assert est.last_observed() == expected
        assert est.epochs_observed == len(epochs)


class TestOrderIndependenceProperties:
    """Satellite: state never depends on dict insertion order, so it
    is identical across ``PYTHONHASHSEED`` values."""

    @staticmethod
    def _run(epochs, order, forecaster_name):
        forecaster = (build_forecaster(forecaster_name)
                      if forecaster_name else None)
        est = DemandMatrixEstimator(N, ewma_alpha=0.3,
                                    forecaster=forecaster)
        for flows in epochs:
            items = sorted(flows.items())
            if order == "reversed":
                items = list(reversed(items))
            est.observe(dict(items))
        return est.state_signature()

    @given(st.lists(pairs_strategy(), min_size=1, max_size=5),
           st.sampled_from([None, "ewma", "last_value"]))
    @settings(max_examples=40, deadline=None)
    def test_signature_invariant_under_insertion_order(
            self, epochs, forecaster_name):
        assert (self._run(epochs, "sorted", forecaster_name)
                == self._run(epochs, "reversed", forecaster_name))

    @given(pairs_strategy())
    @settings(max_examples=40, deadline=None)
    def test_signature_rows_are_sorted_and_complete(self, flows):
        est = DemandMatrixEstimator(N, ewma_alpha=1.0)
        est.observe(flows)
        signature = est.state_signature()
        keys = [(s, d) for s, d, _, _ in signature]
        assert keys == sorted(keys)
        assert set(keys) == set(flows)

"""Lane-structured ladders, transition costs, and per-mode power."""

import pytest

from repro.power.lanes import (
    INFINIBAND_LANE_LADDER,
    LaneConfig,
    LaneLadder,
    LaneModePower,
    ReactivationModel,
)
from repro.units import US


class TestLaneConfig:
    def test_aggregate_rate(self):
        assert LaneConfig(10.0, 4).gbps == 40.0
        assert LaneConfig(2.5, 1).gbps == 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            LaneConfig(10.0, 0)
        with pytest.raises(ValueError):
            LaneConfig(0.0, 4)

    def test_ordering_by_aggregate_then_lanes(self):
        # order=True dataclass ordering is field order (rate, lanes);
        # the ladder sorts via _sort_key which is (gbps, lanes).
        ladder = LaneLadder([LaneConfig(10.0, 1), LaneConfig(2.5, 4),
                             LaneConfig(5.0, 1)])
        rates = [c.gbps for c in ladder.configs]
        assert rates == sorted(rates)

    def test_str(self):
        assert str(LaneConfig(2.5, 4)) == "4x2.5G"


class TestInfiniBandLadder:
    def test_six_operating_points(self):
        assert len(INFINIBAND_LANE_LADDER) == 6

    def test_extremes(self):
        assert INFINIBAND_LANE_LADDER.configs[0] == LaneConfig(2.5, 1)
        assert INFINIBAND_LANE_LADDER.max_config == LaneConfig(10.0, 4)

    def test_scalar_rates_match_evaluation_ladder(self):
        assert INFINIBAND_LANE_LADDER.scalar_rates() == \
            (2.5, 5.0, 10.0, 20.0, 40.0)

    def test_ten_gbps_tie_exists(self):
        at_10 = [c for c in INFINIBAND_LANE_LADDER if c.gbps == 10.0]
        assert len(at_10) == 2


class TestBandwidthSteps:
    def test_step_up_skips_same_rate_sibling(self):
        # From 1x QDR (10G), up goes to 20G — not to 4x SDR (also 10G).
        assert INFINIBAND_LANE_LADDER.step_up_bandwidth(
            LaneConfig(10.0, 1)) == LaneConfig(5.0, 4)

    def test_step_down_prefers_narrow_fast(self):
        # From 4x DDR (20G), down to 10G lands on 1x QDR, not 4x SDR.
        assert INFINIBAND_LANE_LADDER.step_down_bandwidth(
            LaneConfig(5.0, 4)) == LaneConfig(10.0, 1)

    def test_clamped_at_extremes(self):
        ladder = INFINIBAND_LANE_LADDER
        slowest = ladder.configs[0]
        assert ladder.step_down_bandwidth(slowest) == slowest
        assert ladder.step_up_bandwidth(ladder.max_config) == \
            ladder.max_config

    def test_full_descent_path(self):
        ladder = INFINIBAND_LANE_LADDER
        config = ladder.max_config
        path = []
        for _ in range(5):
            config = ladder.step_down_bandwidth(config)
            path.append(str(config))
        # 40G -> 20G -> 10G (narrow) -> 5G -> 2.5G, then clamped.
        assert path == ["4x5G", "1x10G", "1x5G", "1x2.5G", "1x2.5G"]

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            LaneLadder([])


class TestReactivationModel:
    def test_same_config_is_free(self):
        model = ReactivationModel()
        assert model.latency_ns(LaneConfig(10.0, 4), LaneConfig(10.0, 4)) == 0.0

    def test_clock_only_change_is_fast(self):
        model = ReactivationModel()
        assert model.latency_ns(
            LaneConfig(2.5, 1), LaneConfig(5.0, 1)) == 100.0

    def test_lane_only_change_is_slow(self):
        model = ReactivationModel()
        assert model.latency_ns(
            LaneConfig(2.5, 1), LaneConfig(2.5, 4)) == 2.0 * US

    def test_combined_change_pays_the_slower_process(self):
        model = ReactivationModel()
        assert model.latency_ns(
            LaneConfig(10.0, 1), LaneConfig(5.0, 4)) == 2.0 * US

    def test_custom_costs(self):
        model = ReactivationModel(clock_change_ns=50.0,
                                  lane_change_ns=5000.0)
        assert model.latency_ns(
            LaneConfig(2.5, 1), LaneConfig(10.0, 1)) == 50.0


class TestLaneModePower:
    def test_full_rate_is_unity(self):
        assert LaneModePower().power(LaneConfig(10.0, 4)) == 1.0

    def test_narrow_fast_beats_wide_slow_at_10g(self):
        model = LaneModePower()
        assert model.power(LaneConfig(10.0, 1)) < \
            model.power(LaneConfig(2.5, 4))

    def test_floor_matches_figure5(self):
        assert LaneModePower().power(LaneConfig(2.5, 1)) == \
            pytest.approx(0.42)

    def test_scalar_rate_priced_at_cheapest_config(self):
        model = LaneModePower()
        # 10 Gb/s as a bare float prices as 1x QDR (0.52), not 4x SDR.
        assert model.power(10.0) == pytest.approx(0.52)
        assert model.power(40.0) == 1.0

    def test_unknown_rate_raises(self):
        with pytest.raises(KeyError):
            LaneModePower().power(13.0)

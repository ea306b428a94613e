"""Rate-decision policies (Section 3.3 heuristic + Section 5.2 extensions)."""

import pytest

from repro.core.policies import (
    AggressivePolicy,
    DemandLadderPolicy,
    HysteresisPolicy,
    PredictivePolicy,
    ThresholdPolicy,
)
from repro.power.link_rates import DEFAULT_RATE_LADDER as LADDER


KEY = "group-a"


class TestThresholdPolicy:
    def test_below_target_steps_down(self):
        policy = ThresholdPolicy(0.5)
        assert policy.decide(KEY, 40.0, 0.2, LADDER) == 20.0

    def test_above_target_steps_up(self):
        policy = ThresholdPolicy(0.5)
        assert policy.decide(KEY, 10.0, 0.8, LADDER) == 20.0

    def test_exactly_at_target_holds(self):
        policy = ThresholdPolicy(0.5)
        assert policy.decide(KEY, 10.0, 0.5, LADDER) == 10.0

    def test_clamped_at_ladder_ends(self):
        policy = ThresholdPolicy(0.5)
        assert policy.decide(KEY, 2.5, 0.0, LADDER) == 2.5
        assert policy.decide(KEY, 40.0, 1.0, LADDER) == 40.0

    def test_idle_link_walks_down_one_step_per_epoch(self):
        policy = ThresholdPolicy(0.5)
        rate = 40.0
        steps = []
        for _ in range(6):
            rate = policy.decide(KEY, rate, 0.0, LADDER)
            steps.append(rate)
        assert steps == [20.0, 10.0, 5.0, 2.5, 2.5, 2.5]

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0.0)
        with pytest.raises(ValueError):
            ThresholdPolicy(1.5)

    def test_negative_utilization_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy().decide(KEY, 40.0, -0.1, LADDER)

    def test_utilization_above_one_still_steps_up(self):
        # Slight over-unity utilization can appear from accounting at
        # epoch edges; it must simply mean "fully busy".
        policy = ThresholdPolicy(0.5)
        assert policy.decide(KEY, 10.0, 1.02, LADDER) == 20.0


class TestHysteresisPolicy:
    def test_dead_band_holds(self):
        policy = HysteresisPolicy(low=0.25, high=0.75)
        assert policy.decide(KEY, 10.0, 0.5, LADDER) == 10.0

    def test_bounds_act_like_threshold(self):
        policy = HysteresisPolicy(low=0.25, high=0.75)
        assert policy.decide(KEY, 10.0, 0.1, LADDER) == 5.0
        assert policy.decide(KEY, 10.0, 0.9, LADDER) == 20.0

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            HysteresisPolicy(low=0.8, high=0.5)
        with pytest.raises(ValueError):
            HysteresisPolicy(low=-0.1, high=0.5)


class TestAggressivePolicy:
    def test_jumps_to_extremes(self):
        policy = AggressivePolicy(0.5)
        assert policy.decide(KEY, 10.0, 0.1, LADDER) == LADDER.min_rate
        assert policy.decide(KEY, 10.0, 0.9, LADDER) == LADDER.max_rate

    def test_at_target_holds(self):
        policy = AggressivePolicy(0.5)
        assert policy.decide(KEY, 10.0, 0.5, LADDER) == 10.0


class TestPredictivePolicy:
    def test_picks_slowest_rate_meeting_demand(self):
        policy = PredictivePolicy(target_utilization=0.5, alpha=1.0)
        # Demand = 0.5 * 40 = 20 Gb/s -> needs rate >= 40 at 50% target.
        assert policy.decide(KEY, 40.0, 0.5, LADDER) == 40.0
        # Demand = 0.05 * 40 = 2 Gb/s -> 5 Gb/s suffices (2 <= 0.5*5).
        assert policy.decide(KEY, 40.0, 0.05, LADDER) == 5.0

    def test_can_drop_multiple_steps(self):
        policy = PredictivePolicy(target_utilization=0.5, alpha=1.0)
        assert policy.decide(KEY, 40.0, 0.0, LADDER) == LADDER.min_rate

    def test_ewma_smooths_demand(self):
        policy = PredictivePolicy(target_utilization=0.5, alpha=0.5)
        policy.decide(KEY, 40.0, 1.0, LADDER)     # high demand remembered
        # A single idle epoch must not collapse the prediction to zero.
        rate = policy.decide(KEY, 40.0, 0.0, LADDER)
        assert rate > LADDER.min_rate

    def test_groups_tracked_independently(self):
        policy = PredictivePolicy(target_utilization=0.5, alpha=0.5)
        policy.decide("hot", 40.0, 1.0, LADDER)
        cold_rate = policy.decide("cold", 40.0, 0.0, LADDER)
        assert cold_rate == LADDER.min_rate

    def test_saturated_demand_needs_max_rate(self):
        policy = PredictivePolicy(target_utilization=0.5, alpha=1.0)
        assert policy.decide(KEY, 40.0, 1.0, LADDER) == LADDER.max_rate

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PredictivePolicy(target_utilization=0.0)
        with pytest.raises(ValueError):
            PredictivePolicy(alpha=0.0)


class TestPolicyOutputsAlwaysLegal:
    @pytest.mark.parametrize("policy", [
        ThresholdPolicy(0.5),
        HysteresisPolicy(0.2, 0.8),
        AggressivePolicy(0.5),
        DemandLadderPolicy(0.5),
        PredictivePolicy(0.5),
    ])
    def test_decisions_stay_on_ladder(self, policy):
        for rate in LADDER:
            for util in (0.0, 0.1, 0.49, 0.5, 0.51, 0.99, 1.0):
                decided = policy.decide(KEY, rate, util, LADDER)
                assert decided in LADDER

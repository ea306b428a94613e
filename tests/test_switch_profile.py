"""Figure 5: the switch-chip dynamic-range profile."""

import pytest

from repro.power.switch_profile import (
    INFINIBAND_SWITCH_PROFILE,
    LinkMedium,
)


class TestAnchors:
    """The profile must hit the numbers the paper states in prose."""

    def test_slowest_mode_is_42_percent(self):
        # "a switch chip today still consumes 42% the power when in the
        # lower performance mode"
        assert INFINIBAND_SWITCH_PROFILE.normalized_power(2.5) == \
            pytest.approx(0.42)

    def test_full_rate_is_unity(self):
        assert INFINIBAND_SWITCH_PROFILE.normalized_power(40.0) == 1.0

    def test_copper_is_25_percent_cheaper(self):
        # "uses 25% less power to drive an electrical link compared to
        # an optical link"
        for rate in INFINIBAND_SWITCH_PROFILE.rates:
            copper = INFINIBAND_SWITCH_PROFILE.normalized_power(
                rate, LinkMedium.COPPER)
            optical = INFINIBAND_SWITCH_PROFILE.normalized_power(
                rate, LinkMedium.OPTICAL)
            assert copper == pytest.approx(0.75 * optical)

    def test_performance_range_is_16x(self):
        assert INFINIBAND_SWITCH_PROFILE.performance_dynamic_range == \
            pytest.approx(16.0)

    def test_power_dynamic_range_near_60_percent(self):
        # The paper quotes 64% including lane shutdown; the link-mode
        # table alone gives 58%.
        assert 0.5 <= INFINIBAND_SWITCH_PROFILE.power_dynamic_range <= 0.64

    def test_static_floor_below_slowest_mode(self):
        # "there is not much power saving opportunity for powering off
        # links entirely": the off state sits just below 1x SDR.
        floor = INFINIBAND_SWITCH_PROFILE.static_floor
        slowest = INFINIBAND_SWITCH_PROFILE.normalized_power(2.5)
        assert floor < slowest
        assert slowest - floor < 0.1


class TestShape:
    def test_power_monotone_in_rate(self):
        powers = [INFINIBAND_SWITCH_PROFILE.normalized_power(r)
                  for r in INFINIBAND_SWITCH_PROFILE.rates]
        assert powers == sorted(powers)

    def test_rates_cover_the_sim_ladder(self):
        assert INFINIBAND_SWITCH_PROFILE.rates == (2.5, 5.0, 10.0, 20.0, 40.0)

    def test_unknown_rate_raises(self):
        with pytest.raises(KeyError):
            INFINIBAND_SWITCH_PROFILE.normalized_power(12.0)

    def test_figure5_rows_cover_all_six_modes(self):
        rows = INFINIBAND_SWITCH_PROFILE.figure5_rows()
        assert len(rows) == 6
        names = [row[0] for row in rows]
        assert "1x SDR" in names and "4x QDR" in names

    def test_figure5_rows_sorted_by_rate(self):
        rows = INFINIBAND_SWITCH_PROFILE.figure5_rows()
        opticals = [row[3] for row in rows]
        assert opticals == sorted(opticals)

    def test_figure5_idle_column_is_static_floor(self):
        for row in INFINIBAND_SWITCH_PROFILE.figure5_rows():
            assert row[1] == INFINIBAND_SWITCH_PROFILE.static_floor

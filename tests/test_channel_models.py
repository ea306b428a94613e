"""Channel power models (Figure 8a vs 8b assumptions)."""

import pytest

from repro.power.channel_models import IdealChannelPower, MeasuredChannelPower
from repro.power.link_rates import DEFAULT_RATE_LADDER
from repro.power.switch_profile import LinkMedium


class TestMeasuredChannelPower:
    def test_full_rate_is_unity(self):
        assert MeasuredChannelPower().power(40.0) == pytest.approx(1.0)

    def test_slowest_rate_is_42_percent(self):
        assert MeasuredChannelPower().power(2.5) == pytest.approx(0.42)

    def test_monotone(self):
        model = MeasuredChannelPower()
        powers = [model.power(r) for r in DEFAULT_RATE_LADDER]
        assert powers == sorted(powers)

    def test_copper_medium_normalizes_to_unity_at_max(self):
        # Normalization is per-medium: a copper channel at full rate is
        # still "1.0 of a copper channel".
        model = MeasuredChannelPower(medium=LinkMedium.COPPER)
        assert model.power(40.0) == pytest.approx(1.0)

    def test_copper_relative_curve_matches_optical(self):
        copper = MeasuredChannelPower(medium=LinkMedium.COPPER)
        optical = MeasuredChannelPower(medium=LinkMedium.OPTICAL)
        for rate in DEFAULT_RATE_LADDER:
            assert copper.power(rate) == pytest.approx(optical.power(rate))


class TestIdealChannelPower:
    def test_linear_in_rate(self):
        model = IdealChannelPower()
        for rate in DEFAULT_RATE_LADDER:
            assert model.power(rate) == pytest.approx(rate / 40.0)

    def test_slowest_rate_is_6_25_percent(self):
        # Section 5.3: "a link configured for 2.5 Gb/s should ideally use
        # only 6.25% the power of the link configured for 40 Gb/s".
        assert IdealChannelPower().power(2.5) == pytest.approx(0.0625)

    def test_ideal_below_measured_at_every_subrate(self):
        ideal, measured = IdealChannelPower(), MeasuredChannelPower()
        for rate in DEFAULT_RATE_LADDER.rates[:-1]:
            assert ideal.power(rate) < measured.power(rate)

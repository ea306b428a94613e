"""Per-channel power as a function of configured data rate.

Figure 8 of the paper evaluates the same link-rate-scaling mechanism under
two channel power models:

- **Measured** (Figure 8a): the normalized per-rate power of the real
  switch chip in Figure 5, whose floor is ~42% of full power.
- **Ideal** (Figure 8b): "channels are ideally energy-proportional with
  offered load themselves.  Thus a channel operating at 2.5 Gb/s uses only
  6.125% the power of a channel operating at 40 Gb/s" — i.e. power scales
  linearly with configured rate.

Both are expressed as *normalized* power in [0, 1] relative to the
channel's maximum rate, which is exactly how the paper reports network
power (percent of a full-rate baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.power.link_rates import RateLadder, DEFAULT_RATE_LADDER
from repro.power.switch_profile import (
    LinkMedium,
    SwitchDynamicRangeProfile,
    INFINIBAND_SWITCH_PROFILE,
)


class ChannelPowerModel(Protocol):
    """Normalized power of one unidirectional channel at a configured rate."""

    def power(self, rate_gbps: float) -> float:
        """Normalized power in [0, 1]; 1.0 is the channel at max rate."""
        ...


@dataclass(frozen=True)
class MeasuredChannelPower:
    """Channel power from the measured switch profile (Figure 5 / 8a).

    Attributes:
        profile: The switch dynamic-range profile to draw mode powers from.
        medium: Link medium; the paper's simulation results assume the
            optical channel curve ("Assuming optical channel power from
            Figure 5").
    """

    profile: SwitchDynamicRangeProfile = INFINIBAND_SWITCH_PROFILE
    medium: LinkMedium = LinkMedium.OPTICAL

    def power(self, rate_gbps: float) -> float:
        """Normalized channel power at the configured rate; 1.0 = max."""
        full = self.profile.normalized_power(
            self.profile.rates[-1], self.medium
        )
        return self.profile.normalized_power(float(rate_gbps), self.medium) / full


@dataclass(frozen=True)
class IdealChannelPower:
    """Ideally energy-proportional channel (Figure 8b): power = rate/max.

    A 2.5 Gb/s configuration consumes 2.5/40 = 6.25% of full power,
    matching the paper's "6.125%" (their figure includes a small overhead
    we fold into the linear model; Section 5.3 restates the ideal as
    "a link configured for 2.5 Gb/s should ideally use only 6.25% the
    power of the link configured for 40 Gb/s").
    """

    ladder: RateLadder = DEFAULT_RATE_LADDER

    def power(self, rate_gbps: float) -> float:
        """Normalized channel power at the configured rate; 1.0 = max."""
        return float(rate_gbps) / self.ladder.max_rate


@dataclass(frozen=True)
class MediumAwareChannelPower:
    """Channel power that honours each channel's physical medium.

    The Table 1 analysis assumes every link costs the same ("for ease of
    comparison we assume that all links are the same power efficiency
    (which does not favor the FBFLY topology)"), and Figure 8a prices
    everything on the optical curve.  This model removes both
    simplifications: a copper channel is priced on the copper curve
    (~25% below optical at every mode), normalized so that a *full-rate
    optical* channel is 1.0 — making mixed-media fabrics directly
    comparable to the all-optical baseline.

    Implements ``power_for(rate, medium)``;
    :meth:`~repro.sim.stats.ChannelStats.energy` dispatches to it when a
    channel carries a medium tag, and ``power`` (medium-less calls)
    falls back to optical.
    """

    profile: SwitchDynamicRangeProfile = INFINIBAND_SWITCH_PROFILE

    def power_for(self, rate_gbps: float, medium: LinkMedium) -> float:
        """Normalized power of a rate on a specific medium's curve."""
        full_optical = self.profile.normalized_power(
            self.profile.rates[-1], LinkMedium.OPTICAL)
        return (self.profile.normalized_power(float(rate_gbps), medium)
                / full_optical)

    def power(self, rate_gbps: float) -> float:
        """Normalized channel power at the configured rate; 1.0 = max."""
        return self.power_for(rate_gbps, LinkMedium.OPTICAL)

"""Power substrate: link-rate ladders, switch-chip power profiles,
channel power models, cluster-level roll-ups and energy cost.

This package implements every power number the paper uses:

- :mod:`repro.power.link_rates` — the InfiniBand data-rate ladder (Table 2)
  and the five-step rate ladder used by the simulator.
- :mod:`repro.power.serdes` — the per-SerDes power model behind the paper's
  "each switch consumes 100 W" assumption.
- :mod:`repro.power.switch_profile` — the dynamic-range profile of a
  commercial switch chip (Figure 5).
- :mod:`repro.power.channel_models` — per-channel power as a function of
  configured rate: measured (Figure 5) and ideally proportional.
- :mod:`repro.power.cluster` — cluster-level power (Figure 1, Table 1).
- :mod:`repro.power.cost` — electricity cost over a service lifetime.
- :mod:`repro.power.itrs` — the ITRS bandwidth-trend series (Figure 6).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".link_rates": ("InfiniBandRate", "INFINIBAND_RATES", "RateLadder",
                    "DEFAULT_RATE_LADDER"),
    ".serdes": ("SerDesPowerModel", "SwitchChipPowerModel"),
    ".switch_profile": ("LinkMedium", "SwitchDynamicRangeProfile",
                        "INFINIBAND_SWITCH_PROFILE"),
    ".channel_models": ("ChannelPowerModel", "MeasuredChannelPower",
                        "IdealChannelPower", "MediumAwareChannelPower"),
    ".cluster": ("ClusterPowerModel", "ClusterPowerBreakdown"),
    ".cost": ("EnergyCostModel",),
    ".capex": ("CapexModel", "DEFAULT_CAPEX_MODEL"),
    ".lanes": ("LaneConfig", "LaneLadder", "LaneModePower",
               "ReactivationModel", "INFINIBAND_LANE_LADDER"),
})

__all__ = [
    "InfiniBandRate",
    "INFINIBAND_RATES",
    "RateLadder",
    "DEFAULT_RATE_LADDER",
    "SerDesPowerModel",
    "SwitchChipPowerModel",
    "LinkMedium",
    "SwitchDynamicRangeProfile",
    "INFINIBAND_SWITCH_PROFILE",
    "ChannelPowerModel",
    "MeasuredChannelPower",
    "IdealChannelPower",
    "MediumAwareChannelPower",
    "ClusterPowerModel",
    "ClusterPowerBreakdown",
    "EnergyCostModel",
    "CapexModel",
    "DEFAULT_CAPEX_MODEL",
    "LaneConfig",
    "LaneLadder",
    "LaneModePower",
    "ReactivationModel",
    "INFINIBAND_LANE_LADDER",
]

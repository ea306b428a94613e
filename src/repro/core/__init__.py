"""The paper's core contribution: energy-proportional link-rate control.

- :mod:`repro.core.policies` — rate-decision policies: the paper's
  threshold heuristic (Section 3.3) plus the Section 5.2 extensions
  (hysteresis, aggressive min/max jumps, predictive EWMA).
- :mod:`repro.core.grouping` — control groups: independent unidirectional
  channels vs bidirectional link pairs (Section 3.3.1).
- :mod:`repro.core.controller` — the epoch-based controller that samples
  utilization and retunes every link.
- :mod:`repro.core.ideal` — ideal-energy-proportionality reference
  points (Section 4.2.1).
- :mod:`repro.core.registry` — the control-mode registry through which
  new control planes (e.g. :mod:`repro.predict`) plug into the run
  harness.
- :mod:`repro.core.dynamic_topology` — the Section 5.1 dynamic-topology
  controller (FBFLY <-> torus <-> mesh by powering links off).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".policies": ("RatePolicy", "ThresholdPolicy", "HysteresisPolicy",
                  "AggressivePolicy", "DemandLadderPolicy",
                  "PredictivePolicy"),
    ".registry": ("register_control_mode", "registered_control_modes",
                  "control_mode_registered", "build_controller"),
    ".grouping": ("ChannelGroup", "independent_groups", "paired_groups"),
    ".controller": ("EpochController", "ControllerConfig"),
    ".lane_controller": ("LaneAwareController", "LaneControllerConfig"),
    ".sensors": ("GroupReading", "UtilizationSensor", "QueueOccupancySensor",
                 "CreditStallSensor", "CompositeSensor"),
    ".ideal": ("ideal_power_fraction", "always_slowest_power_fraction",
               "power_dynamic_range"),
    ".dynamic_topology": ("TopologyMode", "DynamicTopologyController",
                          "DynamicTopologyConfig"),
})

__all__ = [
    "RatePolicy",
    "ThresholdPolicy",
    "HysteresisPolicy",
    "AggressivePolicy",
    "DemandLadderPolicy",
    "PredictivePolicy",
    "register_control_mode",
    "registered_control_modes",
    "control_mode_registered",
    "build_controller",
    "ChannelGroup",
    "independent_groups",
    "paired_groups",
    "EpochController",
    "ControllerConfig",
    "LaneAwareController",
    "LaneControllerConfig",
    "GroupReading",
    "UtilizationSensor",
    "QueueOccupancySensor",
    "CreditStallSensor",
    "CompositeSensor",
    "ideal_power_fraction",
    "always_slowest_power_fraction",
    "power_dynamic_range",
    "TopologyMode",
    "DynamicTopologyController",
    "DynamicTopologyConfig",
]

"""repro.faults — the fault-campaign subsystem.

The paper's Section 1 observation — a deactivated link looks exactly
like a faulty one to routing — cuts both ways: the energy-proportional
machinery is only deployable if the network degrades gracefully when
real faults land on top of deliberate rate-scaling.  This package is
the robustness counterpart to :mod:`repro.predict`:

- :mod:`repro.faults.scenario` — the declarative, seeded
  :class:`~repro.faults.scenario.FaultScenario` DSL (link flaps,
  switch-chip failures, Weibull MTBF/MTTR processes, stuck/noisy
  sensors) with a named-scenario registry keyed by
  ``SimulationSpec.faults``.
- :mod:`repro.faults.sensors` — :class:`~repro.faults.sensors.
  FaultySensor`, the deterministic sensor-corruption wrapper.
- :mod:`repro.faults.policy` — the power-gating
  :class:`~repro.faults.policy.FaultAwareEpochController` and the
  :class:`~repro.faults.policy.SpanningSetGuard` that pins a spanning
  set of links at minimum-rate-on.
- :mod:`repro.faults.control_faults` — the **control-plane** chaos
  layer (telemetry dropout/staleness/corruption, lost and delayed
  actuations, controller crashes with cold restarts), injected as a
  group proxy between the sensor taps and any registry-routed
  controller, with its own named-scenario registry keyed by
  ``SimulationSpec.control_faults``.  Its defensive counterpart is
  :mod:`repro.core.failsafe`.

Importing this package registers the ``"fault_gated"`` (unprotected)
and ``"fault_pinned"`` (spanning-set-guarded) control modes with
:mod:`repro.core.registry`; the runner imports it lazily the first
time it meets an unregistered control mode or a ``spec.faults``
scenario, mirroring :mod:`repro.predict`.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.core.registry import (
    control_mode_registered,
    register_control_mode,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    ".policy": ("FaultAwareEpochController", "GatingConfig",
                "SpanningSetGuard"),
    ".scenario": ("FaultScenario", "LinkFlap", "RandomLinkFaults",
                  "SensorFault", "SwitchChipFailure", "apply_scenario",
                  "build_scenario", "register_scenario",
                  "registered_scenarios"),
    ".control_faults": ("ControlFaultScenario", "ControlPlaneChaos",
                        "ControllerCrash", "CorruptReading",
                        "DecisionDelay", "DecisionLoss", "StaleTelemetry",
                        "TelemetryDropout", "build_control_scenario",
                        "register_control_scenario",
                        "registered_control_scenarios"),
    ".sensors": ("FaultySensor",),
})

CONTROL_FAULT_GATED = "fault_gated"
CONTROL_FAULT_PINNED = "fault_pinned"


def _build_sensor(network, spec):
    """The honest utilization sensor, corrupted per the scenario."""
    from repro.core.sensors import UtilizationSensor
    from repro.faults.scenario import build_scenario
    from repro.faults.sensors import FaultySensor

    base = UtilizationSensor()
    if not spec.faults:
        return base
    scenario = build_scenario(spec.faults, spec)
    if scenario.sensor_fault is None:
        return base
    return FaultySensor(base, scenario.sensor_fault, network,
                        seed=scenario.seed)


def _build_gated(network, spec, decision_log):
    """Control-mode builder for ``control="fault_gated"`` specs."""
    from repro.core.controller import ControllerConfig
    from repro.faults.policy import FaultAwareEpochController

    return FaultAwareEpochController(
        network,
        policy=spec.build_policy(),
        config=ControllerConfig.from_spec(spec),
        sensor=_build_sensor(network, spec),
        decision_log=decision_log,
        guard=None,
        name=CONTROL_FAULT_GATED,
    )


def _build_pinned(network, spec, decision_log):
    """Control-mode builder for ``control="fault_pinned"`` specs."""
    from repro.core.controller import ControllerConfig
    from repro.faults.policy import FaultAwareEpochController, SpanningSetGuard

    return FaultAwareEpochController(
        network,
        policy=spec.build_policy(),
        config=ControllerConfig.from_spec(spec),
        sensor=_build_sensor(network, spec),
        decision_log=decision_log,
        guard=SpanningSetGuard(network),
        name=CONTROL_FAULT_PINNED,
    )


if not control_mode_registered(CONTROL_FAULT_GATED):
    register_control_mode(CONTROL_FAULT_GATED, _build_gated)
if not control_mode_registered(CONTROL_FAULT_PINNED):
    register_control_mode(CONTROL_FAULT_PINNED, _build_pinned)

__all__ = [
    "CONTROL_FAULT_GATED",
    "CONTROL_FAULT_PINNED",
    "FaultScenario",
    "LinkFlap",
    "SwitchChipFailure",
    "RandomLinkFaults",
    "SensorFault",
    "apply_scenario",
    "build_scenario",
    "register_scenario",
    "registered_scenarios",
    "FaultySensor",
    "FaultAwareEpochController",
    "GatingConfig",
    "SpanningSetGuard",
    "ControlFaultScenario",
    "ControlPlaneChaos",
    "ControllerCrash",
    "CorruptReading",
    "DecisionDelay",
    "DecisionLoss",
    "StaleTelemetry",
    "TelemetryDropout",
    "build_control_scenario",
    "register_control_scenario",
    "registered_control_scenarios",
]

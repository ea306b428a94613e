"""Control-mode registry: pluggable controller construction.

:func:`repro.experiments.runner.run_simulation` historically
hard-coded its one controller kind (the reactive
:class:`~repro.core.controller.EpochController`).  New control planes —
the predictive controllers of :mod:`repro.predict`, or any future
experiment-specific scheme — register a builder here instead of
patching the runner, so a :class:`~repro.experiments.runner
.SimulationSpec` can name any registered mode in its ``control`` field
and still flow through the sweep harness, the persistent cache, and the
worker pool unchanged.

A builder is a callable ``(network, spec, decision_log) -> controller``
(or ``None`` for modes needing no controller object).  Builders run
inside :func:`run_simulation` after the network is constructed and
before the workload attaches, in every worker process, so they must be
importable at module top level and deterministic for a fixed spec.

The §5.2 lane ladder (``lane_aware``) and the §5.1 topology modes
(:data:`DYNAMIC_TOPOLOGY_MODES`) register here, with builders that
import their controllers only when a run asks for them.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

#: Builder signature: ``(network, spec, decision_log) -> controller``.
ControllerBuilder = Callable[..., Optional[object]]

_BUILDERS: Dict[str, ControllerBuilder] = {}


def register_control_mode(name: str, builder: ControllerBuilder,
                          replace: bool = False) -> None:
    """Register a controller builder under a control-mode name.

    Args:
        name: The ``SimulationSpec.control`` value selecting this mode.
        builder: ``(network, spec, decision_log) -> controller``.
        replace: Allow overwriting an existing registration (module
            re-imports and tests); a silent collision is otherwise an
            error.
    """
    if not name:
        raise ValueError("control mode name must be non-empty")
    if name in _BUILDERS and not replace:
        raise ValueError(f"control mode {name!r} is already registered")
    _BUILDERS[name] = builder


def control_mode_registered(name: str) -> bool:
    """Whether a builder is registered for ``name``."""
    return name in _BUILDERS


def registered_control_modes() -> Tuple[str, ...]:
    """Every registered mode name, sorted."""
    return tuple(sorted(_BUILDERS))


def build_controller(name: str, network, spec, decision_log):
    """Construct the controller for a registered mode.

    Raises:
        ValueError: If no builder is registered under ``name`` (the
            same error the runner raised before the registry existed).
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown control mode {name!r}; registered modes: "
            f"{', '.join(registered_control_modes()) or '(none)'}"
        ) from None
    return builder(network=network, spec=spec, decision_log=decision_log)


def _build_lane_aware(network, spec, decision_log):
    """§5.2: the lane x clock ladder with asymmetric transition costs;
    the epoch derives from the spec as the epoch controller's does."""
    from repro.core.controller import ControllerConfig
    from repro.core.lane_controller import (
        LaneAwareController,
        LaneControllerConfig,
    )
    return LaneAwareController(network, LaneControllerConfig(
        epoch_ns=ControllerConfig.from_spec(spec).effective_epoch_ns,
        target_utilization=spec.target_utilization,
        independent_channels=spec.independent_channels),
        decision_log=decision_log)


#: §5.1 modes: a mesh, torus or FBFLY pinned for the whole run, and the
#: load-adaptive controller walking that ladder up from the mesh.
DYNAMIC_TOPOLOGY_MODES = ("topology_mesh", "topology_torus",
                          "topology_fbfly", "dynamic_topology")


def _topology_builder(start: str, pinned: bool) -> ControllerBuilder:
    """Builder for a dynamic-topology mode starting in mode ``start``
    (never leaving it when ``pinned``)."""
    def build(network, spec, decision_log):
        from repro.core.dynamic_topology import (
            DynamicTopologyConfig,
            DynamicTopologyController,
            TopologyMode,
        )
        knobs = (dict(upgrade_threshold=1.0, downgrade_threshold=0.0,
                      congestion_bytes=float("inf")) if pinned else {})
        if spec.epoch_ns is not None:
            knobs["epoch_ns"] = spec.epoch_ns
        config = DynamicTopologyConfig(
            reactivation_ns=spec.reactivation_ns,
            start_mode=TopologyMode[start], **knobs)
        return DynamicTopologyController(network, config,
                                         decision_log=decision_log)
    return build


register_control_mode("lane_aware", _build_lane_aware)
for _start in ("MESH", "TORUS", "FBFLY"):
    register_control_mode(f"topology_{_start.lower()}",
                          _topology_builder(_start, pinned=True))
register_control_mode("dynamic_topology",
                      _topology_builder("MESH", pinned=False))

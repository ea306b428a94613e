"""repro.topo — demand-aware dynamic topology control.

The paper's Section 5.1 names "dynamic topologies" as the natural
extension of link-rate scaling: if routing already tolerates links that
look faulty, whole links can be powered off when the traffic matrix
does not need them.  This package makes that a third control axis,
co-scheduled with per-channel rates and fault pinning:

- :mod:`repro.topo.demand` — the per-epoch
  :class:`~repro.topo.demand.DemandMatrixEstimator`, aggregating the
  channel telemetry the rate ladder already collects into a
  src-switch x dst-switch demand matrix (EWMA-smoothed, optionally
  forecast through the :mod:`repro.predict` registry).
- :mod:`repro.topo.controller` — the
  :class:`~repro.topo.controller.DemandAwareTopologyController`,
  guarded by the fault campaign's
  :class:`~repro.faults.policy.SpanningSetGuard` in full: the pinned
  spanning set plus a whole-fabric BFS check over the intersection of
  topology-dark links and live faults.

Importing this package registers the ``"demand_topo"`` (dynamic) and
``"degraded_topo"`` (static express-links-off torus degradation, the
campaign's middle arm) control modes with :mod:`repro.core.registry`;
the runner imports it lazily the first time it meets an unregistered
control mode, mirroring :mod:`repro.predict` and :mod:`repro.faults`.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.core.registry import (
    control_mode_registered,
    register_control_mode,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    ".controller": ("DemandAwareTopologyController",
                    "TopologyControlConfig"),
    ".demand": ("DemandMatrixEstimator",),
})

CONTROL_DEMAND_TOPO = "demand_topo"
CONTROL_DEGRADED_TOPO = "degraded_topo"

#: Every control mode this package registers — the runner (routing
#: and partition-detection wiring) and CLI both key off this tuple.
TOPO_CONTROL_MODES = (CONTROL_DEMAND_TOPO, CONTROL_DEGRADED_TOPO)


def _build_demand_topo(network, spec, decision_log):
    """Control-mode builder for ``control="demand_topo"`` specs.

    ``spec.forecaster`` is reused verbatim: the same registry name
    that drives predictive rate control selects the demand-matrix
    forecaster here, so ``--control demand_topo --forecaster ewma``
    runs topology decisions on forecast demand.
    """
    from repro.core.controller import ControllerConfig
    from repro.topo.controller import (
        DemandAwareTopologyController,
        TopologyControlConfig,
    )

    return DemandAwareTopologyController(
        network,
        policy=spec.build_policy(),
        config=ControllerConfig.from_spec(spec),
        decision_log=decision_log,
        topo=TopologyControlConfig(forecaster=spec.forecaster),
        name=CONTROL_DEMAND_TOPO,
    )


def _build_degraded_topo(network, spec, decision_log):
    """Control-mode builder for ``control="degraded_topo"`` specs.

    The static comparison arm: express links are powered off at t=0
    (the Section 5.1 FBFLY -> torus degradation) and the topology then
    *freezes* — rate control keeps running, but no demand-driven
    power decisions are made.  The guard still recovers pinned links
    if faults later make a dark link the last spanning candidate.
    """
    from repro.core.controller import ControllerConfig
    from repro.topo.controller import (
        DemandAwareTopologyController,
        TopologyControlConfig,
    )
    from repro.topology.mesh_torus import LinkClass

    return DemandAwareTopologyController(
        network,
        policy=spec.build_policy(),
        config=ControllerConfig.from_spec(spec),
        decision_log=decision_log,
        topo=TopologyControlConfig(
            start_dark=(LinkClass.EXPRESS.value,),
            freeze=True,
        ),
        name=CONTROL_DEGRADED_TOPO,
    )


if not control_mode_registered(CONTROL_DEMAND_TOPO):
    register_control_mode(CONTROL_DEMAND_TOPO, _build_demand_topo)
if not control_mode_registered(CONTROL_DEGRADED_TOPO):
    register_control_mode(CONTROL_DEGRADED_TOPO, _build_degraded_topo)

__all__ = [
    "CONTROL_DEMAND_TOPO",
    "CONTROL_DEGRADED_TOPO",
    "TOPO_CONTROL_MODES",
    "DemandAwareTopologyController",
    "DemandMatrixEstimator",
    "TopologyControlConfig",
]

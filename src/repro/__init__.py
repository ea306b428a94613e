"""repro — a reproduction of "Energy Proportional Datacenter Networks"
(Abts, Marty, Wells, Klausler, Liu — ISCA 2010).

The library has three layers:

- **Analytic** (:mod:`repro.topology`, :mod:`repro.power`): topology
  bills-of-materials and power/cost models behind the paper's Figure 1
  and Table 1 comparisons of flattened-butterfly vs folded-Clos builds.
- **Simulation** (:mod:`repro.sim`, :mod:`repro.routing`,
  :mod:`repro.workloads`): an event-driven network simulator with
  credit-based cut-through flow control, queue-depth adaptive routing,
  and multi-rate plesiochronous channels, driven by the paper's uniform
  workload and synthetic production-trace substitutes.
- **Control** (:mod:`repro.core`): the paper's contribution — the
  epoch-based link-rate controller and its policies, independent vs
  paired channel control, and the dynamic-topology extension.

:mod:`repro.experiments` regenerates every table and figure of the
paper's evaluation on top of these layers.

Every simulation is a :class:`~repro.experiments.runner.SimulationSpec`
run by ``run_simulation`` (or many at once by ``sweep``).  Quickstart::

    from repro.experiments.runner import SimulationSpec, run_simulation

    # 64 hosts on 16 switches, the paper's epoch heuristic, 2 ms.
    spec = SimulationSpec(workload="search", independent_channels=True)
    summary = run_simulation(spec)
    print(summary.measured_power_fraction)     # ~0.47 vs 1.0 baseline
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".topology.fat_tree": ("FatTree",),
    ".topology.flattened_butterfly": ("FlattenedButterfly",),
    ".topology.folded_clos": ("FoldedClos",),
    ".power.capex": ("CapexModel",),
    ".power.cluster": ("ClusterPowerModel",),
    ".power.cost": ("EnergyCostModel",),
    ".power.channel_models": ("MeasuredChannelPower", "IdealChannelPower"),
    ".power.link_rates": ("DEFAULT_RATE_LADDER",),
    ".sim.clos_network": ("FatTreeNetwork",),
    ".sim.network": ("FbflyNetwork", "NetworkConfig"),
    ".sim.faults": ("LinkFaultInjector",),
    ".core.controller": ("EpochController", "ControllerConfig"),
    ".core.policies": ("ThresholdPolicy", "HysteresisPolicy",
                       "AggressivePolicy", "PredictivePolicy"),
    ".core.dynamic_topology": ("DynamicTopologyController",
                               "DynamicTopologyConfig", "TopologyMode"),
    ".workloads.uniform": ("UniformRandomWorkload",),
    ".workloads.synthetic_traces": ("search_workload", "advert_workload"),
})

__version__ = "1.0.0"

__all__ = [
    "FlattenedButterfly",
    "FoldedClos",
    "FatTree",
    "FatTreeNetwork",
    "LinkFaultInjector",
    "CapexModel",
    "ClusterPowerModel",
    "EnergyCostModel",
    "MeasuredChannelPower",
    "IdealChannelPower",
    "DEFAULT_RATE_LADDER",
    "FbflyNetwork",
    "NetworkConfig",
    "EpochController",
    "ControllerConfig",
    "ThresholdPolicy",
    "HysteresisPolicy",
    "AggressivePolicy",
    "PredictivePolicy",
    "DynamicTopologyController",
    "DynamicTopologyConfig",
    "TopologyMode",
    "UniformRandomWorkload",
    "search_workload",
    "advert_workload",
    "__version__",
]

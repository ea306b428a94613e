"""Shared simulation runner for every simulated experiment.

Every simulated result is built from the same kind of run: a workload
over a fabric (an FBFLY, or a fat tree), optionally under a registered
control mode, summarized into power and latency numbers plus any named
post-run readings the spec asks for (:data:`MEASURES`).
:func:`cached_run` memoizes runs by spec so that, e.g., the baseline run
of a workload is shared by every figure needing it in one process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.core.controller import ControllerConfig, EpochController
from repro.core.registry import (
    DYNAMIC_TOPOLOGY_MODES,
    build_controller,
    control_mode_registered,
    register_control_mode,
)
from repro.obs.decisions import DecisionLog
from repro.core.policies import (
    AggressivePolicy,
    DemandLadderPolicy,
    HysteresisPolicy,
    PredictivePolicy,
    RatePolicy,
    ThresholdPolicy,
)
from repro.core.sensors import (
    CompositeSensor,
    CreditStallSensor,
    QueueOccupancySensor,
    UtilizationSensor,
)
from repro.power.channel_models import IdealChannelPower, MeasuredChannelPower
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import US
from repro.workloads.uniform import UniformRandomWorkload

#: Control modes for a run.  ``"predict"`` and ``"oracle"`` are
#: registered by :mod:`repro.predict` (imported lazily on first use);
#: anything beyond the three below resolves through
#: :mod:`repro.core.registry`.
CONTROL_NONE = "none"              # baseline: all links at full rate
CONTROL_EPOCH = "epoch"            # the paper's epoch controller
CONTROL_ALWAYS_SLOWEST = "always_slowest"  # pinned to the minimum rate
CONTROL_PREDICT = "predict"        # forecast-driven epoch controller
CONTROL_ORACLE = "oracle"          # clairvoyant two-pass power floor

#: Control modes registered by :mod:`repro.topo` (imported lazily).
#: Named here as plain strings so the runner can wire dark-link
#: routing and partition detection for them without paying the import.
TOPO_CONTROL_MODES = ("demand_topo", "degraded_topo")

#: Escape-valve deadline for the Section 5.1 modes: degraded (ring)
#: topologies can deadlock without extra virtual channels (the paper's
#: torus footnote), so a hot valve stands in for the escape VC a real
#: router would dedicate.
_RING_ESCAPE_TIMEOUT_NS = 50_000.0

#: ``SimulationSpec.routing`` values (``None`` keeps the derived one).
ROUTINGS = ("dimension_order", "energy_aware")

#: ``SimulationSpec.sensor`` values -> demand-sensor factory (``None``
#: is the controller's default, raw utilization).
SENSORS = {
    "queue_occupancy": QueueOccupancySensor,
    "credit_stall": CreditStallSensor,
    "composite": lambda: CompositeSensor([UtilizationSensor(),
                                          QueueOccupancySensor()]),
}

_POLICIES = {
    "threshold": ThresholdPolicy,
    "hysteresis": lambda target: HysteresisPolicy(
        low=max(0.05, target - 0.2), high=min(0.95, target + 0.2)),
    "aggressive": AggressivePolicy,
    "predictive": PredictivePolicy,
    "ladder": DemandLadderPolicy,
}


@dataclass(frozen=True)
class SimulationSpec:
    """Everything needed to reproduce one simulation run.

    Frozen and hashable so runs can be memoized.
    """

    k: int = 4
    n: int = 3
    workload: str = "search"        # uniform | search | advert
    duration_ns: float = 2_000_000.0
    seed: int = 1
    control: str = CONTROL_EPOCH
    policy: str = "threshold"
    target_utilization: float = 0.5
    reactivation_ns: float = 1.0 * US
    epoch_ns: Optional[float] = None     # None -> 10x reactivation
    independent_channels: bool = False
    uniform_offered_load: float = 0.25
    concentration: Optional[int] = None  # hosts per switch; None -> k
    message_bytes: Optional[int] = None  # uniform workload override
    inject_fraction: float = 1.0         # inject over this duration slice
    #: Forecaster name for ``control="predict"`` runs (see
    #: :data:`repro.predict.forecasters.FORECASTERS`); ``None``
    #: elsewhere.  Elided from cache encodings at the default.
    forecaster: Optional[str] = None
    #: Fractional capacity provisioned above the forecast (predict) or
    #: above true demand (oracle).  Elided from cache encodings at 0.
    headroom: float = 0.0
    #: Named fault scenario (see :mod:`repro.faults.scenario`); ``None``
    #: runs the healthy fabric.  Elided from cache encodings at the
    #: default so pre-fault cache keys stay byte-identical.
    faults: Optional[str] = None
    #: Seed of the fault scenario's own RNG streams (independent of the
    #: workload seed).  Elided from cache encodings at 0.
    fault_seed: int = 0
    #: Named control-plane fault scenario (see
    #: :mod:`repro.faults.control_faults`); ``None`` runs a perfect
    #: control plane.  Seeded by ``fault_seed``; elided from cache
    #: encodings at the default.
    control_faults: Optional[str] = None
    #: Attach the :class:`~repro.core.failsafe.FailsafeGuard` around
    #: the controller.  Elided from cache encodings at False.
    failsafe: bool = False
    #: Routing function (a :data:`ROUTINGS` name).  ``None`` keeps the
    #: derived choice: minimal adaptive routing, or restricted adaptive
    #: routing for fault, chaos and topology-control runs.  Elided at
    #: ``None``, as are the three fields below at their defaults.
    routing: Optional[str] = None
    #: Demand sensor of the epoch controller (a :data:`SENSORS` name).
    sensor: Optional[str] = None
    #: ``"fbfly"``, or ``"fat_tree"``: a three-level fat tree of radix
    #: ``k`` (``n`` must be 3).
    fabric: str = "fbfly"
    #: Sorted names of post-run readings of the live network (see
    #: :data:`MEASURES`) for ``SimulationSummary.measures``.
    measures: Optional[Tuple[str, ...]] = None

    def build_topology(self):
        """Construct the fabric topology this spec describes."""
        if self.fabric == "fat_tree":
            from repro.topology.fat_tree import FatTree
            return FatTree(self.k)
        return FlattenedButterfly(k=self.k, n=self.n, c=self.concentration)

    def build_workload(self, num_hosts: int, line_rate_gbps: float):
        """Construct the spec's workload for a host count."""
        if self.workload == "uniform":
            extra = ({} if self.message_bytes is None
                     else {"message_bytes": self.message_bytes})
            return UniformRandomWorkload(
                num_hosts, offered_load=self.uniform_offered_load,
                line_rate_gbps=line_rate_gbps, seed=self.seed, **extra)
        if self.workload in ("search", "advert", "bursty"):
            from repro.workloads import synthetic_traces
            factory = getattr(synthetic_traces, f"{self.workload}_workload")
            return factory(num_hosts, seed=self.seed,
                           line_rate_gbps=line_rate_gbps)
        if self.workload in ("skewed", "shifting", "diurnal"):
            from repro.workloads.matrix import (
                DiurnalWorkload,
                ShiftingMatrixWorkload,
                SkewedMatrixWorkload,
            )
            if self.workload == "diurnal":
                return DiurnalWorkload(
                    num_hosts, offered_load=self.uniform_offered_load,
                    line_rate_gbps=line_rate_gbps, seed=self.seed)
            cls = (ShiftingMatrixWorkload if self.workload == "shifting"
                   else SkewedMatrixWorkload)
            return cls(num_hosts,
                       hosts_per_switch=(self.concentration or self.k),
                       offered_load=self.uniform_offered_load,
                       line_rate_gbps=line_rate_gbps, seed=self.seed)
        raise ValueError(f"unknown workload {self.workload!r}")

    def build_policy(self) -> RatePolicy:
        """Construct the spec's rate policy instance."""
        try:
            factory = _POLICIES[self.policy]
        except KeyError:
            raise ValueError(f"unknown policy {self.policy!r}") from None
        return factory(self.target_utilization)


@dataclass
class SimulationSummary:
    """Digest of one run — every number the figures report.

    Power fractions are relative to the always-full-rate baseline
    (Figure 8's metric); ``time_at_rate`` is the Figure 7 histogram.
    """

    spec: SimulationSpec
    average_utilization: float
    measured_power_fraction: float
    ideal_power_fraction: float
    mean_message_latency_ns: float
    p99_message_latency_ns: float
    mean_packet_latency_ns: float
    delivered_fraction: float
    messages_delivered: int
    escapes: int
    reconfigurations: int
    time_at_rate: Dict[Optional[float], float] = field(default_factory=dict)
    events_fired: int = 0
    wall_seconds: float = 0.0
    #: Epoch decisions by reason code (controller audit aggregate).
    decision_counts: Dict[str, int] = field(default_factory=dict)
    #: Sorted ``[old_rate, new_rate, count]`` rows over initiated
    #: reconfigurations; the counts sum to ``reconfigurations`` exactly.
    rate_transitions: List[List] = field(default_factory=list)
    #: PID of the process that simulated this run (0 in legacy records).
    worker_pid: int = 0
    #: Predictive-control digest (forecast-attributed decision counts,
    #: forecast-error distributions, oracle schedule stats) — ``None``
    #: for every non-predictive run, and elided from cache encodings so
    #: legacy records and goldens are untouched.
    predict: Optional[Dict] = None
    #: Fault-campaign digest (scenario name, injected faults, drops,
    #: bursts, partitions, gating counters) — ``None`` for healthy
    #: runs, and likewise elided from cache encodings.
    faults: Optional[Dict] = None
    #: Control-plane chaos digest (telemetry loss/staleness/corruption
    #: counts, lost/delayed actuations, crashes and restarts, plus the
    #: failsafe guard's hold/deadman/retry/recovery accounting under
    #: ``"failsafe"``) — ``None`` for runs with a perfect control
    #: plane and no guard, and elided from cache encodings.
    control_plane: Optional[Dict] = None
    #: Topology-control digest (groups dark per epoch, dark-group
    #: nanoseconds, reactivation waits, guard vetoes/violations — see
    #: :meth:`repro.topo.controller.DemandAwareTopologyController.
    #: topo_summary`) — ``None`` for every run whose controller has no
    #: topology axis, and elided from cache encodings.
    topo: Optional[Dict] = None
    #: The readings named by ``spec.measures`` (name -> JSON-safe
    #: value) — ``None`` when the spec names none, and then elided
    #: from cache encodings.
    measures: Optional[Dict] = None

    def digest(self) -> Dict:
        """The deterministic content
        (:func:`repro.experiments.cache.summary_digest`)."""
        from repro.experiments.cache import summary_digest
        return summary_digest(self)


def _build_epoch_controller(network, spec, decision_log):
    """Control-mode builder for the paper's epoch controller."""
    return EpochController(
        network,
        policy=spec.build_policy(),
        config=ControllerConfig.from_spec(spec),
        sensor=None if spec.sensor is None else SENSORS[spec.sensor](),
        decision_log=decision_log,
    )


register_control_mode(CONTROL_EPOCH, _build_epoch_controller)


def _link_pairs(network, stats, controller) -> List[List[float]]:
    """``[cold, hot]`` utilization of the two directions of each link."""
    return [sorted((fwd.stats.busy_ns / stats.duration_ns,
                    rev.stats.busy_ns / stats.duration_ns))
            for fwd, rev in network.link_pairs()]


def _media(network, stats, controller) -> Dict[str, float]:
    """Power priced packaging-aware (each channel on its medium's curve,
    copper below optical), and the copper share of channels.  The
    all-optical pricing is the summary's ``measured_power_fraction``."""
    from repro.power.channel_models import MediumAwareChannelPower
    from repro.power.switch_profile import LinkMedium
    channels = network.all_channels()
    copper = sum(1 for ch in channels
                 if ch.stats.medium is LinkMedium.COPPER)
    return {
        "packaging_aware": stats.power_fraction(MediumAwareChannelPower()),
        "copper_fraction": copper / len(channels),
    }


def _lane(network, stats, controller) -> Dict[str, float]:
    """Power priced per (lanes, rate) operating point, and the total
    reactivation stall the lane-aware controller paid."""
    from repro.power.lanes import LaneModePower
    return {"power_fraction": stats.power_fraction(LaneModePower()),
            "stall_ns": controller.reconfiguration_stall_ns}


def _topology_modes(network, stats, controller) -> Dict[str, object]:
    """Time in each topology mode, and inter-switch power (the set the
    controller can disable) with off links costing nothing or today's
    static floor."""
    from repro.power.switch_profile import INFINIBAND_SWITCH_PROFILE
    inter_switch = [ch.stats for ch in network.inter_switch_channels]
    ideal = IdealChannelPower()
    return {
        "mode_time": controller.mode_time_fractions(stats.duration_ns),
        "power_true_off": stats.power_fraction(
            ideal, channels=inter_switch, off_power=0.0),
        "power_static_floor": stats.power_fraction(
            ideal, channels=inter_switch,
            off_power=INFINIBAND_SWITCH_PROFILE.static_floor),
    }


#: ``SimulationSpec.measures`` names -> ``(network, stats, controller)
#: -> JSON-safe value``, computed in the worker after the run.
MEASURES = {"link_pairs": _link_pairs, "media": _media, "lane": _lane,
            "topology_modes": _topology_modes}

#: Measures that read one controller kind, with the modes building it.
_MEASURE_MODES = {"lane": ("lane_aware",),
                  "topology_modes": DYNAMIC_TOPOLOGY_MODES}


def _restricted_routing(spec: SimulationSpec) -> bool:
    """Whether the run must route around dark links.

    Fault runs do, and so does control-plane chaos (a naive controller
    gates "idle"-looking groups off).  Topology control darkens links
    by design, so it does even on a healthy fabric.
    """
    return (spec.faults is not None or spec.control_faults is not None
            or spec.control in TOPO_CONTROL_MODES
            or spec.control in DYNAMIC_TOPOLOGY_MODES)


#: Controller knobs, each with the only modes that read it (``None``:
#: every mode with a controller).
_CONTROLLER_FIELDS = {
    "policy": None, "target_utilization": None, "reactivation_ns": None,
    "epoch_ns": None, "independent_channels": None,
    "forecaster": (CONTROL_PREDICT, "demand_topo"),
    "headroom": (CONTROL_PREDICT, CONTROL_ORACLE)}


def _check_spec(spec: SimulationSpec) -> None:
    """Reject a spec whose fields its control mode cannot honour or
    ignores, so two specs never name the same run.

    Raises:
        ValueError: naming the offending field.
    """
    defaults = {f.name: f.default for f in fields(SimulationSpec)}
    for name, modes in _CONTROLLER_FIELDS.items():
        value = getattr(spec, name)
        if value != defaults[name] and (
                spec.control in (CONTROL_NONE, CONTROL_ALWAYS_SLOWEST)
                or spec.control not in (modes or (spec.control,))):
            raise ValueError(f"{name}={value!r} has no effect under "
                             f"control={spec.control!r}")
    restricted = _restricted_routing(spec)
    if spec.routing is not None:
        if spec.routing not in ROUTINGS:
            raise ValueError(f"unknown routing {spec.routing!r}")
        if restricted:
            raise ValueError(
                f"routing={spec.routing!r} cannot replace the restricted "
                f"routing that control={spec.control!r} (or a fault "
                f"scenario) needs")
    if spec.sensor is not None:
        if spec.sensor not in SENSORS:
            raise ValueError(f"unknown sensor {spec.sensor!r}")
        if spec.control != CONTROL_EPOCH:
            raise ValueError(f"sensor={spec.sensor!r} needs control="
                             f"{CONTROL_EPOCH!r}, not {spec.control!r}")
    if spec.fabric not in ("fbfly", "fat_tree"):
        raise ValueError(f"unknown fabric {spec.fabric!r}")
    if spec.fabric == "fat_tree" and (
            spec.n != 3 or spec.concentration is not None
            or spec.routing is not None or restricted):
        raise ValueError(
            "fabric='fat_tree' needs n=3, no concentration, the default "
            "routing and a healthy fabric under a rate-control mode")
    if spec.measures is not None and (
            not spec.measures
            or list(spec.measures) != sorted(set(spec.measures))):
        raise ValueError(f"measures must be a sorted, non-empty tuple of "
                         f"distinct names, not {spec.measures!r}")
    for name in spec.measures or ():
        if name not in MEASURES:
            raise ValueError(f"unknown measure {name!r}")
        if spec.control not in _MEASURE_MODES.get(name, (spec.control,)):
            raise ValueError(f"measure {name!r} needs control in "
                             f"{_MEASURE_MODES[name]}, not {spec.control!r}")


def build_network(spec: SimulationSpec):
    """The fabric a (checked) spec describes, wired but not yet run."""
    topology = spec.build_topology()
    net_config = NetworkConfig(seed=spec.seed)
    if spec.control == CONTROL_ALWAYS_SLOWEST:
        net_config = replace(net_config,
                             initial_rate_gbps=net_config.ladder.min_rate)
    if spec.control in DYNAMIC_TOPOLOGY_MODES:
        net_config = replace(net_config,
                             escape_timeout_ns=_RING_ESCAPE_TIMEOUT_NS)
    if spec.fabric == "fat_tree":
        from repro.sim.clos_network import FatTreeNetwork
        return FatTreeNetwork(topology, net_config)
    routing_factory = None
    if _restricted_routing(spec):
        from repro.routing.restricted import RestrictedAdaptiveRouting
        routing_factory = RestrictedAdaptiveRouting
    elif spec.routing == "dimension_order":
        from repro.routing.dimension_order import DimensionOrderRouting
        routing_factory = DimensionOrderRouting
    elif spec.routing == "energy_aware":
        from repro.routing.energy_aware import EnergyAwareRouting
        routing_factory = EnergyAwareRouting
    return FbflyNetwork(topology, net_config,
                        routing_factory=routing_factory)


def run_simulation(spec: SimulationSpec,
                   telemetry=None) -> SimulationSummary:
    """Execute one run described by ``spec`` and summarize it.

    Args:
        spec: The run to simulate.
        telemetry: Optional :class:`~repro.obs.session.Telemetry`
            bundle; when given, its instruments (metrics probe,
            unbounded decision log, monitors) are attached before the
            run and its ``network`` field is set, without changing the
            summary — observation never perturbs the simulation.

    Every run carries an always-on decision audit: a counters-only
    :class:`~repro.obs.decisions.DecisionLog` feeds the summary's
    ``decision_counts`` and ``rate_transitions`` aggregates (whose
    transition counts sum exactly to ``reconfigurations``).
    """
    started = time.perf_counter()
    _check_spec(spec)
    network = build_network(spec)

    decision_log = (telemetry.decision_log if telemetry is not None
                    else DecisionLog(max_records=0))
    controller = None
    if spec.control not in (CONTROL_NONE, CONTROL_ALWAYS_SLOWEST):
        if not control_mode_registered(spec.control):
            # The predictive and fault control planes register their
            # modes on import; load them once, on demand, so
            # reactive-only users never pay for them.  Unknown modes
            # still fail below with the registry's full mode list.
            import repro.predict  # noqa: F401
            if not control_mode_registered(spec.control):
                import repro.faults  # noqa: F401
            if not control_mode_registered(spec.control):
                import repro.topo  # noqa: F401
        controller = build_controller(spec.control, network=network,
                                      spec=spec, decision_log=decision_log)

    injector = None
    if (spec.faults is not None or spec.control_faults is not None
            or spec.control in TOPO_CONTROL_MODES):
        from repro.sim.faults import LinkFaultInjector
        # For control-fault-only runs the injector schedules nothing;
        # it is attached for its drop accounting and BFS partition
        # detection (the chaos campaign's zero-partition SLO).
        # Topology-control runs get it for the same reason: the
        # campaign verdict gates on zero partitions while links are
        # deliberately dark.
        injector = LinkFaultInjector(network, decision_log=decision_log)
        if spec.faults is not None:
            from repro.faults import apply_scenario, build_scenario
            scenario = build_scenario(spec.faults, spec)
            apply_scenario(scenario, network, injector,
                           until_ns=spec.duration_ns)

    chaos = None
    guard = None
    if spec.control_faults is not None:
        if controller is None:
            raise ValueError(
                f"control_faults={spec.control_faults!r} needs a "
                f"controller-driven control mode, not {spec.control!r}")
        from repro.faults.control_faults import (
            ControlPlaneChaos,
            build_control_scenario,
        )
        chaos = ControlPlaneChaos(
            controller, build_control_scenario(spec.control_faults, spec),
            decision_log=decision_log)
    if spec.failsafe:
        if controller is None:
            raise ValueError(
                f"failsafe=True needs a controller-driven control "
                f"mode, not {spec.control!r}")
        from repro.core.failsafe import FailsafeGuard
        # Attached after the chaos layer: the guard wraps the lossy
        # control plane, exactly as it would in deployment.
        guard = FailsafeGuard(controller, decision_log=decision_log,
                              seed=spec.fault_seed)

    if telemetry is not None:
        telemetry.attach(network)

    workload = spec.build_workload(
        network.topology.num_hosts, network.config.ladder.max_rate)
    network.attach_workload(
        workload.events(spec.inject_fraction * spec.duration_ns))
    stats = network.run(until_ns=spec.duration_ns)

    faults_info = None
    if injector is not None:
        faults_info = {"scenario": spec.faults, **injector.digest()}
        if hasattr(controller, "faults_summary"):
            faults_info.update(controller.faults_summary())

    control_plane_info = None
    if chaos is not None or guard is not None:
        control_plane_info = {"scenario": spec.control_faults}
        if chaos is not None:
            control_plane_info.update(chaos.digest())
        control_plane_info["failsafe"] = (guard.digest()
                                          if guard is not None else None)

    return SimulationSummary(
        spec=spec,
        average_utilization=stats.average_utilization(),
        measured_power_fraction=stats.power_fraction(MeasuredChannelPower()),
        ideal_power_fraction=stats.power_fraction(IdealChannelPower()),
        mean_message_latency_ns=stats.mean_message_latency_ns(),
        p99_message_latency_ns=stats.message_latency_percentile_ns(99.0),
        mean_packet_latency_ns=stats.mean_packet_latency_ns(),
        delivered_fraction=stats.delivered_fraction(),
        messages_delivered=stats.messages_delivered,
        escapes=stats.escapes,
        reconfigurations=(getattr(controller, "reconfigurations", 0)
                          + (guard.reconfigurations if guard else 0)),
        time_at_rate=stats.time_at_rate_fractions(),
        events_fired=network.sim.events_fired,
        wall_seconds=time.perf_counter() - started,
        decision_counts=dict(decision_log.reason_counts),
        rate_transitions=decision_log.transition_counts_list(),
        worker_pid=os.getpid(),
        predict=(controller.predict_summary()
                 if hasattr(controller, "predict_summary") else None),
        faults=faults_info,
        control_plane=control_plane_info,
        topo=(controller.topo_summary()
              if hasattr(controller, "topo_summary") else None),
        measures=(None if spec.measures is None else
                  {name: MEASURES[name](network, stats, controller)
                   for name in spec.measures}),
    )


def cached_run(spec: SimulationSpec) -> SimulationSummary:
    """Cached :func:`run_simulation` via the sweep subsystem.

    Routes through :func:`repro.experiments.sweep.run_cached`: a bounded
    LRU memo (so repeated in-process lookups return the same object)
    backed by the persistent disk cache when one is enabled.
    """
    from repro.experiments import sweep as _sweep   # avoid import cycle
    return _sweep.run_cached(spec)


def baseline_spec(spec: SimulationSpec) -> SimulationSpec:
    """The full-rate baseline twin of a controlled spec.

    Control-only knobs (policy, target, reactivation) reset to defaults
    so every controlled variant shares one baseline run — and hence one
    cache entry.
    """
    return SimulationSpec(
        k=spec.k, n=spec.n, workload=spec.workload,
        duration_ns=spec.duration_ns, seed=spec.seed,
        control=CONTROL_NONE,
        uniform_offered_load=spec.uniform_offered_load,
        concentration=spec.concentration,
        message_bytes=spec.message_bytes,
        inject_fraction=spec.inject_fraction,
        routing=spec.routing,
        fabric=spec.fabric,
    )

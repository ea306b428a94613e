"""The clairvoyant oracle: a per-trace lower bound on link power.

How little energy *could* a rate controller have spent on this exact
trace?  The oracle answers by cheating: it is allowed to watch the
whole run before controlling it.

Two passes over the same spec:

1. **Measurement** (:func:`measure_demand`) — simulate the spec at
   full rate with no controller, with an
   :class:`~repro.sim.taps.EpochDemandTap` recording every control
   group's true offered demand (Gb/s) per epoch.  Full rate matters:
   it is the one schedule under which observed busy time is pure
   demand, never rate-limit backlog.
2. **Clairvoyant control** (:class:`OracleController`) — re-simulate,
   but each epoch boundary the controller looks up the demand of the
   epoch *about to start* and picks the slowest ladder rate whose
   capacity covers it (times an optional headroom).  No forecaster, no
   threshold, no trailing window — just the answer sheet.

The result is the energy floor any realizable controller can be
scored against (:mod:`repro.predict.regret`): a real controller can
beat the oracle's *latency* (by over-provisioning) but shouldn't beat
its energy, since the oracle never holds a link faster than its next
epoch's demand requires.  The bound is per-trace and empirical, not
information-theoretic: second-order effects (queueing shifting demand
across epoch boundaries, reactivation stalls) can nibble at it, which
is exactly what makes it an honest yardstick for the tests to check
rather than assume.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.controller import ControllerConfig, EpochController
from repro.core.grouping import (
    ChannelGroup,
    independent_groups,
    paired_groups,
)
from repro.core.sensors import GroupReading
from repro.obs.decisions import DecisionLog, classify_reason
from repro.sim.taps import EpochDemandTap


def measure_demand(spec) -> Dict[str, List[float]]:
    """Pass 1: record per-group true demand under full-rate service.

    Runs the spec's topology and workload with every link pinned at
    the ladder maximum and no controller, sampling each control group
    every epoch.  Deterministic for a deterministic spec, so the
    oracle's schedule is cacheable alongside the run itself.

    Args:
        spec: A :class:`~repro.experiments.runner.SimulationSpec`
            (any ``control`` value; only its fabric, workload and
            epoch timing are used).

    Returns:
        ``group name -> [demand Gb/s per epoch]``, grouped the same
        way (paired or independent) the spec's controller would be.
    """
    from repro.experiments.runner import CONTROL_NONE, build_network
    # The spec's own fabric and routing, healthy and uncontrolled.
    network = build_network(replace(spec, control=CONTROL_NONE,
                                    faults=None, control_faults=None))
    groups = (independent_groups(network) if spec.independent_channels
              else paired_groups(network))
    epoch_ns = ControllerConfig(
        epoch_ns=spec.epoch_ns,
        reactivation_ns=spec.reactivation_ns).effective_epoch_ns
    tap = EpochDemandTap(network, groups, epoch_ns)
    workload = spec.build_workload(network.topology.num_hosts,
                                   network.config.ladder.max_rate)
    network.attach_workload(
        workload.events(spec.inject_fraction * spec.duration_ns))
    network.run(until_ns=spec.duration_ns)
    tap.stop()
    return tap.demand_gbps


class OracleController(EpochController):
    """Pass 2: replay a demand schedule as clairvoyant rate decisions.

    At the end of epoch ``i`` the controller reads the recorded demand
    of epoch ``i + 1`` and sets each group to the slowest ladder rate
    with capacity for ``demand * (1 + headroom)``.  Beyond the end of
    the schedule (injection finished) demand is taken as zero, so
    links drop to the ladder minimum for the drain tail.

    Args:
        network: The fabric of the *second* pass.
        schedule: :func:`measure_demand` output for the same spec;
            keys must match this controller's group names.
        headroom: Fractional capacity padding above true demand
            (``0.0`` gives the tightest energy floor).
        **kwargs: Forwarded to :class:`EpochController`.
    """

    def __init__(self, network, schedule: Dict[str, List[float]],
                 headroom: float = 0.0, name: str = "oracle", **kwargs):
        if headroom < 0.0:
            raise ValueError(f"headroom must be >= 0, got {headroom}")
        super().__init__(network, name=name, **kwargs)
        self.schedule = schedule
        self.headroom = headroom
        self.schedule_misses = 0  # group-epochs beyond the schedule

    def _decide_group(self, group: ChannelGroup, reading: GroupReading,
                      ladder, now: float,
                      log: Optional[DecisionLog]) -> None:
        raw = self.sensor.estimate(group, reading)
        current = group.current_rate
        # Tap sample j covers epoch [j*e, (j+1)*e); this decision, made
        # at the end of epoch ``epochs_run``, provisions the epoch
        # starting now — sample index ``epochs_run + 1``.
        series = self.schedule.get(group.name, ())
        next_epoch = self.epochs_run + 1
        if next_epoch < len(series):
            demand = series[next_epoch]
        else:
            demand = 0.0
            self.schedule_misses += 1
        new_rate = ladder.slowest_covering(demand * (1.0 + self.headroom))
        changed = group.set_rate(new_rate, self.config.reactivation_ns)
        if changed:
            self.reconfigurations += 1
        if log is not None:
            log.record(now, self.name, group.name, group.channel_names,
                       current, new_rate,
                       classify_reason(current, new_rate, changed, raw,
                                       ladder, None),
                       changed, raw, reading.utilization,
                       reading.queue_fraction, reading.credit_stalls,
                       self.config.reactivation_ns if changed else 0.0,
                       forecast_gbps=demand, observed_gbps=raw * current)

    def predict_summary(self) -> Dict[str, object]:
        """JSON-safe digest stamped onto the run summary."""
        return {
            "mode": "oracle",
            "headroom": self.headroom,
            "schedule_groups": len(self.schedule),
            "schedule_epochs": (max((len(s) for s in
                                     self.schedule.values()), default=0)),
            "schedule_misses": self.schedule_misses,
        }

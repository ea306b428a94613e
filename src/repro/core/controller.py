"""The epoch-based link-rate controller.

The mechanism of Section 3.3: "the switch tracks the utilization of each
of its links over an epoch, and then makes an adjustment at the end of
the epoch."  Decisions are local to each control group (the property the
paper credits the FBFLY for: "the decision of link speed is also
entirely local to the switch chip"), so a single controller object here
is purely an implementation convenience — it evaluates every group
independently with no shared state.

Links undergoing reactivation are *not* removed from the legal route
set; the queue-depth adaptive routing steers around them, exactly as the
paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.core.grouping import (
    ChannelGroup,
    independent_groups,
    paired_groups,
)
from repro.obs.decisions import (
    POWERED_OFF,
    DecisionLog,
    classify_reason,
)
from repro.core.policies import RatePolicy, ThresholdPolicy
from repro.core.sensors import (
    CongestionSensor,
    GroupReading,
    UtilizationSensor,
)
from repro.units import US

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FbflyNetwork


@dataclass(frozen=True)
class ControllerConfig:
    """Epoch controller parameters.

    Defaults follow the paper's evaluation: a conservative 1 us
    reactivation, an epoch of 10x the reactivation latency (bounding
    reconfiguration overhead to 10%), a 50% target utilization and
    paired-link control unless independent control is requested.

    Attributes:
        epoch_ns: Utilization measurement window.  When None, it is
            derived as ``10 * reactivation_ns``.
        reactivation_ns: Channel stall per reconfiguration.
        independent_channels: Tune each unidirectional channel separately
            (Section 3.3.1) instead of per link pair.
    """

    epoch_ns: Optional[float] = None
    reactivation_ns: float = 1.0 * US
    independent_channels: bool = False

    @property
    def effective_epoch_ns(self) -> float:
        """The epoch actually used (explicit or derived)."""
        if self.epoch_ns is not None:
            return self.epoch_ns
        return 10.0 * self.reactivation_ns

    @classmethod
    def from_spec(cls, spec) -> ControllerConfig:
        """The timing knobs of a
        :class:`~repro.experiments.runner.SimulationSpec` (the config
        every registered control-mode builder hands its controller)."""
        return cls(epoch_ns=spec.epoch_ns,
                   reactivation_ns=spec.reactivation_ns,
                   independent_channels=spec.independent_channels)


class EpochController:
    """Samples utilization each epoch and retunes every control group.

    Args:
        network: The fabric whose channels this controller tunes.
        policy: Rate policy; defaults to the paper's 50% threshold.
        config: Timing parameters.
        groups: Explicit control groups (defaults to paired or
            independent groups per ``config``).
        sensor: Demand sensor; defaults to raw utilization.
        decision_log: Optional :class:`~repro.obs.decisions.DecisionLog`
            receiving one audit record per group per epoch.
        name: Controller label stamped on audit records (per-chip
            deployments use names like ``"sw3"``).
    """

    def __init__(
        self,
        network: "FbflyNetwork",
        policy: Optional[RatePolicy] = None,
        config: ControllerConfig = ControllerConfig(),
        groups: Optional[List[ChannelGroup]] = None,
        sensor: Optional[CongestionSensor] = None,
        decision_log: Optional[DecisionLog] = None,
        name: str = "epoch",
    ):
        self.network = network
        self.policy = policy if policy is not None else ThresholdPolicy()
        self.config = config
        self.sensor = sensor if sensor is not None else UtilizationSensor()
        self.decision_log = decision_log
        self.name = name
        if groups is None:
            groups = (independent_groups(network)
                      if config.independent_channels
                      else paired_groups(network))
        self.groups = groups
        self.epochs_run = 0
        self.reconfigurations = 0
        self._stopped = False
        # Daemon: periodic controller ticks must not keep an otherwise
        # drained simulation alive.
        self._event = network.sim.schedule(
            config.effective_epoch_ns, self._on_epoch, daemon=True)

    def stop(self) -> None:
        """Cease making decisions (links stay at their current rates)."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    def cold_restart(self) -> None:
        """Resume after a crash with cold (empty) volatile state.

        The control-plane chaos layer
        (:mod:`repro.faults.control_faults`) calls this when a
        ``ControllerCrash`` fault's restart deadline arrives: the
        replacement controller process keeps its *configuration*
        (policy, groups, sensors are rebuilt from config in a real
        deployment) but loses every in-memory accumulator.  Subclasses
        extend :meth:`_reset_volatile_state` to forget theirs — the
        amnesia is the hazard the failsafe's crash recovery exists to
        compensate for.
        """
        self._stopped = False
        if self._event is not None:
            self._event.cancel()
        self._reset_volatile_state()
        self._event = self.network.sim.schedule(
            self.config.effective_epoch_ns, self._on_epoch, daemon=True)

    def _reset_volatile_state(self) -> None:
        """Forget in-memory state a process restart would lose."""
        smoothed = getattr(self.sensor, "_smoothed", None)
        if smoothed is not None:
            smoothed.clear()

    def _on_epoch(self) -> None:
        if self._stopped:
            return
        epoch_ns = self.config.effective_epoch_ns
        ladder = self.network.config.ladder
        log = self.decision_log
        now = self.network.sim.now
        if log is not None:
            log.epoch_mark(now)
        for group in self.groups:
            reading = GroupReading(group.utilization_since_last(epoch_ns),
                                   group.max_queue_fraction(),
                                   group.credit_stalls_since_last())
            if group.is_off:
                if log is not None:
                    log.record(now, self.name, group.name,
                               group.channel_names, None, None,
                               POWERED_OFF, False, 0.0,
                               reading.utilization,
                               reading.queue_fraction,
                               reading.credit_stalls)
                continue
            self._decide_group(group, reading, ladder, now, log)
        self.epochs_run += 1
        self._event = self.network.sim.schedule(epoch_ns, self._on_epoch,
                                                daemon=True)

    def _estimate(self, group: ChannelGroup,
                  reading: GroupReading) -> float:
        """The demand estimate one group's rate decision acts on."""
        return self.sensor.estimate(group, reading)

    def _decide_group(self, group: ChannelGroup, reading: GroupReading,
                      ladder, now: float,
                      log: Optional[DecisionLog]) -> Optional[float]:
        """Decide and apply one group's next-epoch rate; returns the
        estimate it acted on.

        The single extension point for alternative decision planes: the
        predictive, oracle and lane-aware controllers override only
        this method, inheriting the epoch scheduling, group iteration,
        powered-off skipping and drain/reactivation machinery.
        """
        estimate = self._estimate(group, reading)
        current = group.current_rate
        new_rate = self.policy.decide(group, current, estimate, ladder)
        changed = group.set_rate(new_rate, self.config.reactivation_ns)
        if changed:
            self.reconfigurations += 1
        if log is not None:
            log.record(now, self.name, group.name, group.channel_names,
                       current, new_rate,
                       classify_reason(current, new_rate, changed,
                                       estimate, ladder, self.policy),
                       changed, estimate, reading.utilization,
                       reading.queue_fraction, reading.credit_stalls,
                       self.config.reactivation_ns if changed else 0.0)
        return estimate

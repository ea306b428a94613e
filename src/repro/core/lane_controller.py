"""Lane-aware epoch controller (Section 5.2's resync-latency heuristic).

The scalar epoch controller treats every reconfiguration as costing the
same conservative 1 µs.  Real transitions are asymmetric (Section 3.1):
a CDR re-lock (per-lane clock change) takes ~100 ns, while adding or
removing lanes takes microseconds.  Section 5.2 proposes "a better
algorithm might also take into account the difference in link
resynchronization latency to account for whether the lane speed is
changing, the number of lanes are changing, or both" — which is exactly
what this controller does:

- it walks the full two-dimensional InfiniBand ladder (Table 2),
  preferring narrow-fast over wide-slow at equal aggregate rate (1x QDR
  beats 4x SDR by ~5% power in Figure 5), and
- it prices every transition with a :class:`ReactivationModel`, so the
  common fast transitions (clock-only) stall the link for only ~100 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.controller import EpochController
from repro.core.grouping import ChannelGroup
from repro.core.sensors import GroupReading
from repro.obs.decisions import (
    ABOVE_THRESHOLD,
    BELOW_THRESHOLD,
    CLAMPED_MAX,
    CLAMPED_MIN,
    HOLD,
    REACTIVATION_PENDING,
    DecisionLog,
)
from repro.power.lanes import (
    INFINIBAND_LANE_LADDER,
    LaneConfig,
    LaneLadder,
    ReactivationModel,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.fabric import Fabric


@dataclass(frozen=True)
class LaneControllerConfig:
    """Lane-aware controller parameters.

    Attributes:
        epoch_ns: Utilization measurement window.  The scalar controller
            derives its epoch from one fixed reactivation; here
            transitions have different costs, so the epoch defaults to
            10x the *worst-case* (lane-change) latency.
        ladder: The two-dimensional operating-point ladder.
        reactivation: Per-transition latency model.
        target_utilization: The threshold heuristic's single target.
        independent_channels: Per-channel vs per-link-pair control.
    """

    epoch_ns: Optional[float] = None
    ladder: LaneLadder = field(
        default_factory=lambda: INFINIBAND_LANE_LADDER)
    reactivation: ReactivationModel = ReactivationModel()
    target_utilization: float = 0.5
    independent_channels: bool = False

    @property
    def effective_epoch_ns(self) -> float:
        """The epoch actually used (explicit or derived)."""
        if self.epoch_ns is not None:
            return self.epoch_ns
        return 10.0 * self.reactivation.lane_change_ns


class LaneAwareController(EpochController):
    """Epoch controller over (lanes, per-lane rate) operating points.

    The epoch loop, powered-off skipping and :meth:`stop` are the
    scalar controller's; only the per-group decision differs.

    Args:
        network: The fabric whose channels this controller tunes.
        config: Timing, ladder and threshold parameters.
        decision_log: Optional :class:`~repro.obs.decisions.DecisionLog`
            receiving one audit record per group per epoch (operating
            points are stamped into ``old_mode``/``new_mode``).
        name: Controller label stamped on audit records.
    """

    def __init__(self, network: "Fabric",
                 config: LaneControllerConfig = LaneControllerConfig(),
                 decision_log: Optional[DecisionLog] = None,
                 name: str = "lane"):
        channel_ladder = network.config.ladder
        for rate in config.ladder.scalar_rates():
            if rate not in channel_ladder:
                raise ValueError(
                    f"lane ladder produces {rate} Gb/s but the network's "
                    f"channel ladder {channel_ladder} cannot serialize it")
        super().__init__(network, config=config,
                         decision_log=decision_log, name=name)
        self._config_of: Dict[ChannelGroup, LaneConfig] = {
            group: config.ladder.max_config for group in self.groups
        }
        self.reconfiguration_stall_ns = 0.0

    def group_config(self, group: ChannelGroup) -> LaneConfig:
        """The lane configuration a group currently runs at."""
        return self._config_of[group]

    def _classify(self, current: LaneConfig, new: LaneConfig,
                  changed: bool, utilization: float) -> str:
        """Reason code for one lane-ladder decision."""
        if changed:
            return (ABOVE_THRESHOLD if new.gbps > current.gbps
                    or (new.gbps == current.gbps
                        and utilization > self.config.target_utilization)
                    else BELOW_THRESHOLD)
        if new != current:
            return REACTIVATION_PENDING
        if utilization > self.config.target_utilization:
            return CLAMPED_MAX
        if utilization < self.config.target_utilization:
            return CLAMPED_MIN
        return HOLD

    def _decide_group(self, group: ChannelGroup, reading: GroupReading,
                      ladder, now: float,
                      log: Optional[DecisionLog]) -> float:
        """Step one rung along the lane ladder (not the channels'
        scalar ``ladder``), stalling for that transition's own
        reactivation latency."""
        utilization = reading.utilization
        current = self._config_of[group]
        if utilization > self.config.target_utilization:
            new = self.config.ladder.step_up_bandwidth(current)
        elif utilization < self.config.target_utilization:
            new = self.config.ladder.step_down_bandwidth(current)
        else:
            new = current
        changed = False
        if new != current:
            latency = self.config.reactivation.latency_ns(current, new)
            for channel in group.channels:
                if not channel.is_off:
                    changed |= channel.set_rate(new.gbps, latency, mode=new)
            if changed:
                self._config_of[group] = new
                self.reconfigurations += 1
                self.reconfiguration_stall_ns += latency
        if log is not None:
            log.record(now, self.name, group.name, group.channel_names,
                       current.gbps, new.gbps,
                       self._classify(current, new, changed, utilization),
                       changed, utilization, utilization,
                       reactivation_ns=latency if changed else 0.0,
                       old_mode=str(current), new_mode=str(new))
        return utilization

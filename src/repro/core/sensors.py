"""Congestion sensors: the demand estimators of Section 3.2.

The paper lists the mechanisms a switch could use to predict a link's
future bandwidth needs: "credit-based link-level flow control can
deliver precise information on the congestion of upstream receive
buffers, or channel utilization can be used over some timescale as a
proxy for congestion".  Its evaluation then argues utilization alone
suffices (Section 3.3: "utilization effectively captures both" data
availability and credit state).

These sensors make that argument testable.  Every epoch the controller
takes one :class:`GroupReading` per control group (so delta-based
counters are consumed exactly once) and asks its sensor for a demand
estimate in [0, ~1], which the rate policy thresholds against:

- :class:`UtilizationSensor` — busy-time fraction (the paper's choice).
- :class:`QueueOccupancySensor` — output-queue depth relative to
  capacity, EWMA-smoothed (the "output buffer occupancy" input of
  adaptive routing).
- :class:`CreditStallSensor` — utilization plus a saturating boost when
  the channel starved for credits (a stalled link looks idle to pure
  utilization even though demand is high).
- :class:`CompositeSensor` — max over a sensor set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol, Sequence


@dataclass(frozen=True, init=False)
class GroupReading:
    """One epoch's raw observations of a control group.

    Frozen, with a hand-written initializer that stores the instance
    dict in one go (one is built per group per epoch; see
    :class:`repro.obs.decisions.Decision`).

    Attributes:
        utilization: Busy-time fraction at the current rate.
        queue_fraction: Worst output-queue occupancy across member
            channels, relative to queue capacity, at epoch end.
        credit_stalls: Transmission attempts blocked on credits during
            the epoch.
    """

    utilization: float
    queue_fraction: float
    credit_stalls: int

    def __init__(self, utilization: float, queue_fraction: float,
                 credit_stalls: int):
        object.__setattr__(self, "__dict__", {
            "utilization": utilization, "queue_fraction": queue_fraction,
            "credit_stalls": credit_stalls})


class CongestionSensor(Protocol):
    """Produces a demand estimate from one group's epoch reading."""

    def estimate(self, group_key: object, reading: GroupReading) -> float:
        """Demand estimate for the group's last epoch; see CongestionSensor."""
        ...


class UtilizationSensor:
    """Busy-time fraction — the paper's estimator."""

    def estimate(self, group_key: object, reading: GroupReading) -> float:
        """Demand estimate for the group's last epoch; see CongestionSensor."""
        return reading.utilization


class QueueOccupancySensor:
    """EWMA of end-of-epoch output-queue occupancy.

    Queue depth is spiky (one large message can fill a queue briefly),
    so the instantaneous reading is smoothed; ``alpha=1`` disables
    smoothing.
    """

    def __init__(self, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._smoothed: Dict[object, float] = {}

    def estimate(self, group_key: object, reading: GroupReading) -> float:
        """Demand estimate for the group's last epoch; see CongestionSensor."""
        previous = self._smoothed.get(group_key, reading.queue_fraction)
        value = (self.alpha * reading.queue_fraction
                 + (1.0 - self.alpha) * previous)
        self._smoothed[group_key] = value
        return value


class CreditStallSensor:
    """Utilization, boosted when the channel starved for credits."""

    def __init__(self, stall_boost: float = 0.1, max_boost: float = 0.5):
        if stall_boost < 0 or max_boost < 0:
            raise ValueError("boosts must be non-negative")
        self.stall_boost = stall_boost
        self.max_boost = max_boost

    def estimate(self, group_key: object, reading: GroupReading) -> float:
        """Demand estimate for the group's last epoch; see CongestionSensor."""
        boost = min(self.max_boost,
                    reading.credit_stalls * self.stall_boost)
        return reading.utilization + boost


class CompositeSensor:
    """Max over several sensors — upgrade if *any* signal says busy."""

    def __init__(self, sensors: Sequence[CongestionSensor]):
        if not sensors:
            raise ValueError("composite sensor needs at least one sensor")
        self.sensors = list(sensors)

    def estimate(self, group_key: object, reading: GroupReading) -> float:
        """Demand estimate for the group's last epoch; see CongestionSensor."""
        return max(sensor.estimate(group_key, reading)
                   for sensor in self.sensors)

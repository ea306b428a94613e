"""The service's seams on the shared control-fault injector.

:class:`repro.faults.control_faults.ControlFaultInjector` decides
every fault of a :class:`~repro.faults.control_faults.
ControlFaultScenario`; :class:`ServiceChaos` points it at the
service's streams:

- :class:`~repro.faults.control_faults.TelemetryDropout` — the
  reading never reaches the ingest stream (at the next tick the
  controller sees *absence*, which the unprotected arm reads as
  idleness — the signature hazard, unchanged).
- :class:`~repro.faults.control_faults.StaleTelemetry` — an older
  reading is delivered in place of the fresh one (a buffering
  pipeline); the record keeps its original epoch stamp, so staleness
  is visible to the degraded-mode ladder exactly as it would be to a
  timestamp-checking consumer.
- :class:`~repro.faults.control_faults.CorruptReading` — the reading
  arrives mangled (stuck or scaled, demand included) with no
  transport-level signal.
- :class:`~repro.faults.control_faults.DecisionLoss` /
  :class:`~repro.faults.control_faults.DecisionDelay` — consulted by
  :class:`repro.service.transport.ActuationTransport` per command;
  re-sent commands carry fresh sequence numbers and therefore draw
  independent fates, which is what makes bounded retry effective.
- :class:`~repro.faults.control_faults.ControllerCrash` — the
  decision-loop task is killed at the scheduled time (the supervisor,
  if armed, is what brings it back).

:class:`SlowConsumer` is service-specific (there is no "slow
callback" in a synchronous simulator): it inflates the decision
loop's per-record processing cost inside a window, which is how the
campaign drives the backpressure/shedding machinery.

Draws are keyed ``svc:{seed}:{kind}:{group}:{n}``, with the record's
epoch or the command's sequence number as ``n``; audit records carry
the group's name only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.faults.control_faults import (
    ControlFaultInjector,
    ControlFaultScenario,
    CorruptReading,
    TelemetryFeed,
)
from repro.obs.decisions import DecisionLog
from repro.service.clock import VirtualClock
from repro.service.streams import TelemetryRecord


@dataclass(frozen=True)
class SlowConsumer:
    """The decision loop's per-record processing cost is inflated.

    Attributes:
        cost_ns: Per-record processing time inside the window
            (replaces the loop's nominal cost).
        start_ns / end_ns: Active window (``end_ns=None`` = horizon).
    """

    cost_ns: float
    start_ns: float = 0.0
    end_ns: Optional[float] = None


class ServiceChaos(ControlFaultInjector):
    """Applies a :class:`ControlFaultScenario` (plus an optional
    :class:`SlowConsumer`) to the service's stream seams.

    A reading is a :class:`TelemetryRecord`; a lost one is ``None``.
    """

    prefix = "svc"
    lost_reading = None

    def __init__(self, clock: VirtualClock,
                 scenario: Optional[ControlFaultScenario] = None,
                 slow: Optional[SlowConsumer] = None,
                 decision_log: Optional[DecisionLog] = None,
                 epoch_ns: float = 1e9):
        super().__init__(scenario, decision_log, epoch_ns)
        self.clock = clock
        self.slow = slow
        self._feeds: Dict[str, TelemetryFeed] = {}

    def _new_feed(self, group: str) -> TelemetryFeed:
        """Start tracking ``group`` (its first reading or command)."""
        self._feeds[group] = feed = TelemetryFeed(group, self.history_depth)
        return feed

    # -- telemetry seam ----------------------------------------------------

    def deliver(self,
                record: TelemetryRecord) -> Optional[TelemetryRecord]:
        """One reading through the faulty pipeline; ``None`` = lost."""
        if self.scenario is None:
            return record
        feed = self._feeds.get(record.group) or self._new_feed(record.group)
        return self._telemetry(feed, record.epoch, record.time_ns,
                               record)[0]

    @staticmethod
    def _corrupt(record: TelemetryRecord,
                 fault: CorruptReading) -> TelemetryRecord:
        if fault.kind == "stuck":
            return replace(record, utilization=fault.value,
                           queue_fraction=fault.value,
                           demand_gbps=fault.value * record.demand_gbps)
        return replace(record,
                       utilization=record.utilization * fault.factor,
                       queue_fraction=record.queue_fraction * fault.factor,
                       demand_gbps=record.demand_gbps * fault.factor)

    # -- actuation seam ----------------------------------------------------

    def actuation_fate(self, command) -> Tuple[str, float]:
        """``(fate, extra_delay_ns)`` for one command: ``ok``,
        ``lost``, or ``delayed``.  Keyed by the command's transport
        sequence number, so each re-send is an independent draw."""
        if self.scenario is None:
            return "ok", 0.0
        feed = self._feeds.get(command.group) or self._new_feed(command.group)
        return self._actuation_fate(feed, command.seq, self.clock.now_ns)

    # -- controller lifetime ----------------------------------------------

    def crash_times(self) -> Tuple:
        """The scenario's scheduled crashes (service kills the loop)."""
        if self.scenario is None:
            return ()
        return self.scenario.crashes

    # -- slow consumer -----------------------------------------------------

    def record_cost_ns(self, nominal_ns: float) -> float:
        """The decision loop's per-record cost right now."""
        if self._active(self.slow, self.clock.now_ns):
            return self.slow.cost_ns
        return nominal_ns

"""Pointing the control-fault DSL at the service's streams.

The chaos DSL of :mod:`repro.faults.control_faults` was written
against the simulator's group proxies; the service gives its fault
types a second target with the same semantics but real transport
seams:

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
  arrives mangled (stuck or scaled) with no transport-level signal.
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

Determinism: every draw is a stateless string-seeded hash
(``keyed_draw(f"svc:{seed}:{kind}:{group}:{n}")``), the idiom of
the simulator-side injector, so service chaos is independent of
``PYTHONHASHSEED`` and identical between campaign arms.  Every
injection is audited into the DecisionLog under the existing
``control_fault_*`` reasons.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, replace
from typing import Deque, Dict, Optional, Tuple

from repro.faults.control_faults import (
    CONTROLLER_GROUP,
    ControlFaultScenario,
)
from repro.keyed import keyed_draw
from repro.obs.decisions import (
    CONTROL_FAULT_ACTUATION_DELAYED,
    CONTROL_FAULT_ACTUATION_LOST,
    CONTROL_FAULT_CRASH,
    CONTROL_FAULT_RESTART,
    CONTROL_FAULT_TELEMETRY_CORRUPT,
    CONTROL_FAULT_TELEMETRY_LOST,
    CONTROL_FAULT_TELEMETRY_STALE,
    DecisionLog,
)
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


class ServiceChaos:
    """Applies a :class:`ControlFaultScenario` (plus an optional
    :class:`SlowConsumer`) to the service's stream seams."""

    def __init__(self, clock: VirtualClock,
                 scenario: Optional[ControlFaultScenario] = None,
                 slow: Optional[SlowConsumer] = None,
                 decision_log: Optional[DecisionLog] = None,
                 epoch_ns: float = 1e9):
        self.clock = clock
        self.scenario = scenario
        self.slow = slow
        self.decision_log = decision_log
        self.epoch_ns = epoch_ns
        self.telemetry_lost = 0
        self.telemetry_stale = 0
        self.telemetry_corrupt = 0
        self.actuations_lost = 0
        self.actuations_delayed = 0
        self.crashes = 0
        self.restarts = 0
        self.max_lost_streak = 0
        self._lost_streaks: Dict[str, int] = {}
        self._history: Dict[str, Deque[TelemetryRecord]] = {}
        #: (kind, group) -> the per-run selection draw; see _affected.
        self._selection: Dict[Tuple[str, str], float] = {}
        depth = 4
        if scenario is not None and scenario.stale is not None:
            depth = max(depth, scenario.stale.epochs + 2)
        self._depth = depth

    # -- determinism primitives ------------------------------------------

    def _affected(self, kind: str, group: str, fraction: float) -> bool:
        """Stable per-run group selection, drawn once per (kind, group)."""
        if fraction >= 1.0:
            return True
        if fraction <= 0.0:
            return False
        key = (kind, group)
        draw = self._selection.get(key)
        if draw is None:
            draw = keyed_draw(f"svcsel:{self.scenario.seed}:{kind}:{group}")
            self._selection[key] = draw
        return draw < fraction

    def _draw(self, kind: str, group: str, n: int) -> float:
        return keyed_draw(f"svc:{self.scenario.seed}:{kind}:{group}:{n}")

    @staticmethod
    def _active(fault, now: float) -> bool:
        if fault is None or now < fault.start_ns:
            return False
        return fault.end_ns is None or now < fault.end_ns

    # -- telemetry seam ----------------------------------------------------

    def deliver(self,
                record: TelemetryRecord) -> Optional[TelemetryRecord]:
        """One reading through the faulty pipeline; ``None`` = lost.

        Order matches the simulator-side injector: staleness picks
        which report is in flight, corruption mangles it, a dropout
        loses whatever would have arrived.
        """
        if self.scenario is None:
            return record
        sc = self.scenario
        now = record.time_ns
        delivered = record
        stale = sc.stale
        if stale is not None:
            # Only a stale fault reads the history, so only it keeps one.
            history = self._history.get(record.group)
            if history is None:
                history = self._history[record.group] = collections.deque(
                    maxlen=self._depth)
            history.append(record)
            if (self._active(stale, now)
                    and self._affected("stale", record.group,
                                       stale.fraction)):
                target = record.epoch - stale.epochs
                chosen = history[0]
                for entry in history:
                    if entry.epoch <= target:
                        chosen = entry
                if chosen.epoch < record.epoch:
                    delivered = chosen
                    self.telemetry_stale += 1
                    self._log(record.group, CONTROL_FAULT_TELEMETRY_STALE,
                              now)
        if (self._active(sc.corrupt, now)
                and self._affected("corrupt", record.group,
                                   sc.corrupt.fraction)):
            c = sc.corrupt
            if c.kind == "stuck":
                delivered = replace(delivered, utilization=c.value,
                                    queue_fraction=c.value,
                                    demand_gbps=c.value
                                    * delivered.demand_gbps)
            else:
                delivered = replace(
                    delivered,
                    utilization=delivered.utilization * c.factor,
                    queue_fraction=delivered.queue_fraction * c.factor,
                    demand_gbps=delivered.demand_gbps * c.factor)
            self.telemetry_corrupt += 1
            self._log(record.group, CONTROL_FAULT_TELEMETRY_CORRUPT, now)
        if (self._active(sc.dropout, now)
                and self._affected("dropout", record.group,
                                   sc.dropout.fraction)
                and self._draw("dropout", record.group, record.epoch)
                < sc.dropout.probability):
            self.telemetry_lost += 1
            streak = self._lost_streaks.get(record.group, 0) + 1
            self._lost_streaks[record.group] = streak
            self.max_lost_streak = max(self.max_lost_streak, streak)
            self._log(record.group, CONTROL_FAULT_TELEMETRY_LOST, now)
            return None
        self._lost_streaks[record.group] = 0
        return delivered

    # -- actuation seam ----------------------------------------------------

    def actuation_fate(self, command) -> Tuple[str, float]:
        """``(fate, extra_delay_ns)`` for one command: ``ok``,
        ``lost``, or ``delayed``.  Keyed by the command's transport
        sequence number, so each re-send is an independent draw."""
        if self.scenario is None:
            return "ok", 0.0
        sc = self.scenario
        now = self.clock.now_ns
        name = command.group
        if (self._active(sc.loss, now)
                and self._affected("loss", name, sc.loss.fraction)
                and self._draw("loss", name, command.seq)
                < sc.loss.probability):
            self.actuations_lost += 1
            self._log(name, CONTROL_FAULT_ACTUATION_LOST, now)
            return "lost", 0.0
        if (self._active(sc.delay, now)
                and self._affected("delay", name, sc.delay.fraction)
                and self._draw("delay", name, command.seq)
                < sc.delay.probability):
            self.actuations_delayed += 1
            self._log(name, CONTROL_FAULT_ACTUATION_DELAYED, now)
            return "delayed", sc.delay.epochs * self.epoch_ns
        return "ok", 0.0

    # -- controller lifetime ----------------------------------------------

    def crash_times(self) -> Tuple:
        """The scenario's scheduled crashes (service kills the loop)."""
        if self.scenario is None:
            return ()
        return self.scenario.crashes

    def note_crash(self) -> None:
        """Count and audit one decision-loop kill."""
        self.crashes += 1
        self._log(CONTROLLER_GROUP, CONTROL_FAULT_CRASH,
                  self.clock.now_ns)

    def note_restart(self) -> None:
        """Count and audit one cold restart."""
        self.restarts += 1
        self._log(CONTROLLER_GROUP, CONTROL_FAULT_RESTART,
                  self.clock.now_ns)

    # -- slow consumer -----------------------------------------------------

    def record_cost_ns(self, nominal_ns: float) -> float:
        """The decision loop's per-record cost right now."""
        if self.slow is not None and self._active(self.slow,
                                                  self.clock.now_ns):
            return self.slow.cost_ns
        return nominal_ns

    # -- audit -------------------------------------------------------------

    def _log(self, group: str, reason: str, now: float) -> None:
        if self.decision_log is None:
            return
        self.decision_log.record(now, "chaos", group, (), None, None,
                                 reason, False)

    def digest(self) -> Dict[str, object]:
        """JSON-safe injection accounting (the simulator injector's
        key set, so summaries compare across both worlds)."""
        return {
            "telemetry_lost": self.telemetry_lost,
            "telemetry_stale": self.telemetry_stale,
            "telemetry_corrupt": self.telemetry_corrupt,
            "actuations_lost": self.actuations_lost,
            "actuations_delayed": self.actuations_delayed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "max_lost_streak": self.max_lost_streak,
        }

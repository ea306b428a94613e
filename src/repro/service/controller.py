"""The service decision loop: epoch control over unreliable streams.

This is the paper's epoch controller rebuilt for a world where
nothing is synchronous: telemetry arrives (or doesn't) on a bounded
stream, actuations go out over a lossy transport, and the loop itself
can be killed at any await point.  One loop instance owns one
:class:`DecisionState` — everything it would need to survive a
restart — and the state is a plain JSON-safe structure precisely so
checkpoints are trivial and property-testable.

Per processed :class:`~repro.service.streams.EpochTick` the loop
decides every group in fleet order through the **degraded-mode
ladder** (resilient arms):

1. *fresh* (telemetry from this epoch): the reactive demand ladder —
   smallest rate meeting the utilization target, gate off after
   ``gate_after_epochs`` of true idleness, wake on demand or queue
   growth;
2. *stale within TTL*: hold the last-good rate — silence is never
   treated as idleness (``service_stale_hold``);
3. *stale past TTL* (or a fleet-wide staleness quorum): ramp to the
   safe floor, waking the group if gating powered it off
   (``service_safe_floor``) — capacity is sacrificed, availability is
   not.

The rung, also each group's vote in the quorum, is the failsafe
guard's rule (:mod:`repro.core.safety`) fed the epoch age; the actions
are the loop's.

The unprotected arm replaces all of that with the naive mapping the
chaos DSL documents: a missing reading *is* a zero reading, so a
telemetry dropout looks exactly like idleness and the gating ladder
walks a live group dark.

Actuation reliability is the **intent journal**: every command sent
while retries are enabled is journaled until acknowledged; a command
unacknowledged past its timeout is re-sent with a fresh transport
sequence number under seeded exponential backoff
(``keyed_draw(f"svcretry:{seed}:{group}:{attempt}")``), bounded by
``retry_max_attempts``, and the journal itself is bounded by
``journal_cap`` with an eviction counter
(:func:`repro.core.safety.bounded_put`) — a permanently lost actuation
cannot grow memory over a multi-hour run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.safety import FLOOR, FRESH, bounded_put, staleness
from repro.keyed import keyed_draw
from repro.obs.decisions import (
    ABOVE_THRESHOLD,
    BELOW_THRESHOLD,
    GATED_OFF,
    GATED_WAKE,
    HOLD,
    POWERED_OFF,
    REACTIVATION_PENDING,
    SERVICE_RECOVERED,
    SERVICE_RETRY,
    SERVICE_SAFE_FLOOR,
    SERVICE_STALE_HOLD,
    DecisionLog,
)
from repro.service.clock import VirtualClock
from repro.service.streams import EpochTick, TelemetryRecord, TelemetryStream
from repro.service.transport import ActuationTransport, RateCommand

#: Label stamped on every decision the loop records.
CONTROLLER_LABEL = "service"


@dataclass
class GroupState:
    """One group's control state (JSON-safe via ``to_dict``)."""

    believed_rate: float
    believed_off: bool = False
    last_good_rate: float = 0.0
    fresh_epoch: int = -1
    fresh_demand: float = 0.0
    fresh_queue: float = 0.0
    fresh_off: bool = False
    idle_epochs: int = 0
    gated: bool = False

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the fields in order), the inverse of
        :meth:`from_dict`."""
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GroupState":
        return cls(**data)


@dataclass
class IntentEntry:
    """One journaled unacknowledged actuation."""

    rate_gbps: float
    epoch: int
    seq: int
    attempts: int
    next_retry_ns: float
    first_send_ns: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the fields in order), the inverse of
        :meth:`from_dict`."""
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "IntentEntry":
        return cls(**data)


@dataclass
class DecisionState:
    """Everything the decision loop needs to survive a restart."""

    groups: Dict[str, GroupState]
    journal: Dict[str, IntentEntry] = field(default_factory=dict)
    decided_epoch: int = -1
    command_seq: int = 0
    decisions_made: int = 0
    stale_holds: int = 0
    safe_floors: int = 0
    fleet_floor_epochs: int = 0
    retries: int = 0
    retry_exhausted: int = 0
    journal_evictions: int = 0
    gate_offs: int = 0
    wakes: int = 0
    acks: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form, the inverse of :meth:`from_dict`."""
        out = {name: value for name, value in self.__dict__.items()
               if name not in ("groups", "journal")}
        out["groups"] = {name: g.to_dict()
                         for name, g in self.groups.items()}
        out["journal"] = {name: entry.to_dict()
                          for name, entry in self.journal.items()}
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DecisionState":
        scalars = {key: value for key, value in data.items()
                   if key not in ("groups", "journal")}
        return cls(
            groups={name: GroupState.from_dict(g)
                    for name, g in data["groups"].items()},
            journal={name: IntentEntry.from_dict(entry)
                     for name, entry in data["journal"].items()},
            **scalars)


def fresh_state(group_names, max_rate: float) -> DecisionState:
    """Cold state: every group believed at max rate (power-on state)."""
    return DecisionState(groups={
        name: GroupState(believed_rate=max_rate,
                         last_good_rate=max_rate)
        for name in group_names})


class ServiceDecisionLoop:
    """One supervised incarnation of the decision loop.

    Args:
        clock: Virtual clock.
        config: The owning :class:`repro.service.service.ServiceConfig`.
        stream: Telemetry-in.
        transport: Decision-out (its ``on_ack`` must be wired to
            :meth:`on_ack`).
        decision_log: Closed-taxonomy audit log.
        chaos: Optional :class:`repro.service.faults.ServiceChaos`
            (slow-consumer cost inflation).
        state: Restored :class:`DecisionState`, or ``None`` for cold.
        latency_observer: Optional callable fed each tick's decision
            latency in virtual ns (the metrics histogram).
    """

    def __init__(self, clock: VirtualClock, config,
                 stream: TelemetryStream,
                 transport: ActuationTransport,
                 decision_log: DecisionLog, chaos=None,
                 state: Optional[DecisionState] = None,
                 latency_observer=None):
        self.clock = clock
        self.config = config
        self.stream = stream
        self.transport = transport
        self.log = decision_log
        self.chaos = chaos
        self.state = state if state is not None else fresh_state(
            config.group_names, config.ladder.max_rate)
        self.latency_observer = latency_observer
        self.heartbeat_ns = clock.now_ns
        #: Virtual-ns decision latencies, one per processed tick
        #: (observability, not control state: never checkpointed).
        self.latency_ns: List[float] = []

    # -- the loop ----------------------------------------------------------

    async def run(self) -> None:
        """Consume the stream forever (cancelled = killed)."""
        config = self.config
        while True:
            item = await self.stream.get()
            self.heartbeat_ns = self.clock.now_ns
            if isinstance(item, TelemetryRecord):
                cost = config.record_cost_ns
                if self.chaos is not None:
                    cost = self.chaos.record_cost_ns(cost)
                await self.clock.sleep(cost)
                self._ingest(item)
            elif isinstance(item, EpochTick):
                await self.clock.sleep(config.tick_cost_ns)
                self._process_tick(item)
            self.heartbeat_ns = self.clock.now_ns
            self.clock.note()

    def _ingest(self, record: TelemetryRecord) -> None:
        g = self.state.groups[record.group]
        if record.epoch > g.fresh_epoch:
            g.fresh_epoch = record.epoch
            g.fresh_demand = record.demand_gbps
            g.fresh_queue = record.queue_fraction
            g.fresh_off = record.is_off

    # -- per-tick decision pass --------------------------------------------

    def _process_tick(self, tick: EpochTick) -> None:
        state = self.state
        if tick.epoch <= state.decided_epoch:
            return
        config = self.config
        now = self.clock.now_ns
        fleet_floor = False
        if config.degraded_modes:
            ttl = config.staleness_ttl_epochs
            over_ttl = sum(
                1 for g in state.groups.values()
                if staleness(tick.epoch - g.fresh_epoch, ttl) == FLOOR)
            quorum = math.ceil(config.fleet_floor_fraction
                               * len(state.groups))
            fleet_floor = over_ttl >= max(1, quorum)
            if fleet_floor:
                state.fleet_floor_epochs += 1
        for name in config.group_names:
            self._decide_group(name, tick.epoch, now, fleet_floor)
        self._run_retries(now)
        state.decided_epoch = tick.epoch
        latency = now - tick.time_ns
        self.latency_ns.append(latency)
        if self.latency_observer is not None:
            self.latency_observer(latency)
        self.log.epoch_mark(now)

    def _decide_group(self, name: str, epoch: int, now: float,
                      fleet_floor: bool) -> None:
        config = self.config
        g = self.state.groups[name]
        self.state.decisions_made += 1
        age = epoch - g.fresh_epoch  # never fresh (-1): epoch + 1
        if not config.degraded_modes:
            # Naive mapping: absence is a zero reading (the dropout
            # hazard the chaos DSL documents).
            demand = g.fresh_demand if age == 0 else 0.0
            queue = g.fresh_queue if age == 0 else 0.0
            self._normal_decide(name, g, epoch, now, demand, queue)
            return
        rung = staleness(age, config.staleness_ttl_epochs, fleet_floor)
        if rung == FLOOR:
            self._safe_floor(name, g, epoch, now)
        elif rung == FRESH:
            self._normal_decide(name, g, epoch, now,
                                g.fresh_demand, g.fresh_queue)
        else:
            self.state.stale_holds += 1
            self._record(name, SERVICE_STALE_HOLD, now, changed=False,
                         old_rate=self._shown_rate(g),
                         new_rate=self._shown_rate(g))

    def _shown_rate(self, g: GroupState) -> Optional[float]:
        return None if (g.believed_off or g.gated) else g.believed_rate

    def _normal_decide(self, name: str, g: GroupState, epoch: int,
                       now: float, demand: float,
                       queue: float) -> None:
        config = self.config
        if g.gated:
            if (demand > config.idle_eps_gbps
                    or queue > config.wake_queue_fraction):
                rate = config.ladder.slowest_covering(
                    max(demand, config.floor_rate_gbps),
                    config.target_utilization)
                self.state.wakes += 1
                g.gated = False
                g.idle_epochs = 0
                g.last_good_rate = rate
                self._send(name, g, rate, epoch, now, GATED_WAKE,
                           changed=False)
            else:
                self._record(name, POWERED_OFF, now, changed=False,
                             old_rate=None, new_rate=None)
            return
        if (demand <= config.idle_eps_gbps
                and queue <= config.wake_queue_fraction):
            g.idle_epochs += 1
        else:
            g.idle_epochs = 0
        if g.idle_epochs >= config.gate_after_epochs:
            self.state.gate_offs += 1
            g.gated = True
            self._send(name, g, 0.0, epoch, now, GATED_OFF,
                       changed=False)
            return
        rate = config.ladder.slowest_covering(
            demand, config.target_utilization)
        g.last_good_rate = rate
        pending = self.state.journal.get(name)
        if pending is not None and pending.rate_gbps == rate:
            self._record(name, REACTIVATION_PENDING, now,
                         changed=False, old_rate=g.believed_rate,
                         new_rate=rate)
            return
        if g.believed_off or rate != g.believed_rate:
            reason = (ABOVE_THRESHOLD
                      if g.believed_off or rate > g.believed_rate
                      else BELOW_THRESHOLD)
            self._send(name, g, rate, epoch, now, reason, changed=True)
        else:
            self._record(name, HOLD, now, changed=False,
                         old_rate=g.believed_rate, new_rate=rate)

    def _safe_floor(self, name: str, g: GroupState, epoch: int,
                    now: float) -> None:
        config = self.config
        floor = config.floor_rate_gbps
        self.state.safe_floors += 1
        if g.gated or g.believed_off:
            g.gated = False
            g.idle_epochs = 0
            self.state.wakes += 1
            self._send(name, g, max(floor, g.last_good_rate), epoch,
                       now, SERVICE_SAFE_FLOOR, changed=False)
        elif g.believed_rate < floor:
            self._send(name, g, floor, epoch, now, SERVICE_SAFE_FLOOR,
                       changed=False)
        else:
            shown = g.believed_rate
            self._record(name, SERVICE_SAFE_FLOOR, now,
                         changed=False, old_rate=shown, new_rate=shown)

    # -- actuation / journal -----------------------------------------------

    def _send(self, name: str, g: GroupState, rate: float, epoch: int,
              now: float, reason: str, changed: bool) -> None:
        config = self.config
        self.state.command_seq += 1
        seq = self.state.command_seq
        command = RateCommand(seq=seq, group=name, rate_gbps=rate,
                              epoch=epoch, time_ns=now)
        old_rate = self._shown_rate(g)
        # changed=True feeds the transition audit, which needs a real
        # (old, new) rate pair; wake/gate events keep changed=False
        # like the simulator-side gating reasons.
        self._record(name, reason, now,
                     changed=changed and old_rate is not None
                     and rate > 0,
                     old_rate=old_rate,
                     new_rate=rate if rate > 0 else None)
        if config.retries:
            self._journal_intent(name, rate, epoch, seq, now)
        else:
            # Optimistic belief: the unprotected controller assumes
            # every command applied (the DecisionLoss hazard).
            g.believed_off = rate <= 0.0
            if rate > 0.0:
                g.believed_rate = rate
        self.transport.send(command)

    def _journal_intent(self, name: str, rate: float, epoch: int,
                        seq: int, now: float) -> None:
        """Journal a first send under the ``journal_cap`` bound."""
        config = self.config
        if bounded_put(self.state.journal, name, IntentEntry(
                rate_gbps=rate, epoch=epoch, seq=seq, attempts=1,
                next_retry_ns=now + config.retry_timeout_ns,
                first_send_ns=now), config.journal_cap):
            self.state.journal_evictions += 1

    def on_ack(self, command: RateCommand, changed: bool) -> None:
        """Transport callback: the plant applied ``command``."""
        g = self.state.groups[command.group]
        self.state.acks += 1
        if command.rate_gbps <= 0.0:
            g.believed_off = True
        else:
            g.believed_off = False
            g.believed_rate = command.rate_gbps
        entry = self.state.journal.get(command.group)
        if entry is not None and entry.seq == command.seq:
            del self.state.journal[command.group]
        self.clock.note()

    def _run_retries(self, now: float) -> None:
        config = self.config
        if not config.retries:
            return
        state = self.state
        for name in list(state.journal):
            entry = state.journal[name]
            if now < entry.next_retry_ns:
                continue
            if entry.attempts >= config.retry_max_attempts:
                del state.journal[name]
                state.retry_exhausted += 1
                continue
            state.command_seq += 1
            seq = state.command_seq
            jitter = 0.8 + 0.4 * keyed_draw(
                f"svcretry:{config.seed}:{name}:{entry.attempts}")
            backoff = (config.retry_timeout_ns
                       * (2 ** (entry.attempts - 1)) * jitter)
            state.journal[name] = IntentEntry(
                rate_gbps=entry.rate_gbps, epoch=entry.epoch, seq=seq,
                attempts=entry.attempts + 1,
                next_retry_ns=now + backoff,
                first_send_ns=entry.first_send_ns)
            state.retries += 1
            self._record(name, SERVICE_RETRY, now, changed=False,
                         old_rate=None, new_rate=entry.rate_gbps
                         if entry.rate_gbps > 0 else None)
            self.transport.send(RateCommand(
                seq=seq, group=name, rate_gbps=entry.rate_gbps,
                epoch=entry.epoch, time_ns=now))

    # -- recovery hook (supervisor side) -----------------------------------

    def recover_group(self, name: str, now: float) -> None:
        """Wake a journal-dark group after a restart.

        Clears its gating bookkeeping (the failsafe guard's
        ``release_gate``), audits ``service_recovered`` for the
        supervisor and re-issues power-on intent, journaled and
        retried like any other send, so the wake survives a lossy
        actuation path too."""
        g = self.state.groups[name]
        g.gated = False
        g.idle_epochs = 0
        rate = max(self.config.floor_rate_gbps, g.last_good_rate)
        self.log.record(now, "supervisor", name, (), None, rate,
                        SERVICE_RECOVERED, False)
        self.state.command_seq += 1
        seq = self.state.command_seq
        if self.config.retries:
            self._journal_intent(name, rate, self.state.decided_epoch,
                                 seq, now)
        self.transport.send(RateCommand(
            seq=seq, group=name, rate_gbps=rate,
            epoch=self.state.decided_epoch, time_ns=now))

    # -- audit -------------------------------------------------------------

    def _record(self, group: str, reason: str, now: float,
                changed: bool, old_rate: Optional[float],
                new_rate: Optional[float]) -> None:
        self.log.record(now, CONTROLLER_LABEL, group, (), old_rate,
                        new_rate, reason, changed)

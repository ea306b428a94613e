"""The failsafe guard: surviving a faulty control plane.

:mod:`repro.faults.control_faults` breaks the control plane — reports
lost in flight, commands dropped or delayed, the controller process
crashing and restarting cold.  This module is the defense: a
:class:`FailsafeGuard` wraps the groups of **any** registry-routed
controller (reactive, predictive, fault-aware) the way a switch-local
watchdog would sit next to the real actuation hardware, and keeps the
fabric safe with four mechanisms:

- **Bounded-staleness fallback** — a decision computed from a lost
  (zeroed) report is vetoed for up to
  :attr:`FailsafeConfig.staleness_ttl_epochs` epochs: the group holds
  the last decision made on good telemetry instead of slamming to
  minimum rate because silence looked like idleness
  (``failsafe_hold``).
- **Deadman watchdog** — once telemetry has been dark past the TTL,
  or the controller itself has stopped making decisions
  (:attr:`FailsafeConfig.controller_timeout_epochs` epochs without
  ``epochs_run`` advancing), affected groups are forced to a safe
  posture: powered **on** at least the rate floor, never powered off,
  gating claims released (``failsafe_deadman``).  The watchdog only
  ever adds capacity — it wakes dark links; it never lowers a live
  link's rate, so a crashed controller leaves traffic unharmed.
  While telemetry is dark it also watches the **real** switch-local
  queue occupancy and steps a visibly-congested group one ladder rate
  up (queue-pressure relief — lost reports must not pin a congested
  link slow).
- **Retry with backoff** — the guard journals the controller's
  intended rate on every actuation; when the fabric's actual rate
  diverges (a command was lost in flight), it re-issues the command
  through the same lossy path with seeded exponential backoff
  (``failsafe_retry``).
- **Crash recovery from the DecisionLog** — the guard's power journal
  taps the decision log for power events (``gated_off`` /
  ``gated_wake``, ``topology_off`` / ``topology_on``) and controller
  restarts.  A group still powered off that the *pre-crash*
  controller gated is stranded — the cold-restarted controller no
  longer knows it owns that link — so the guard wakes it
  (``failsafe_recovered``).

The staleness ladder (fed the lost-report streak, forced by a silent
controller) and the power journal are the live service's too
(:mod:`repro.core.safety`); the actions and the retry backoff are this
guard's own.

The guard is **inert on a healthy control plane**: with no chaos layer
attached, every reading reports delivered, the deadman never trips,
intended and actual rates agree, and the guard's epoch pass does
nothing but bookkeeping.

Audit discipline: guard actions that change a rate are logged with
``changed=True`` and counted in the guard's own ``reconfigurations``
(the run summary sums controller + guard, preserving the invariant
that ``transition_counts`` totals exactly match ``reconfigurations``);
power-on wakes are logged ``changed=False`` like the fault-aware
controller's own gating events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.safety import FLOOR, HOLD, ON, PowerJournal, staleness
from repro.keyed import keyed_draw
from repro.obs.decisions import (
    CONTROL_FAULT_RESTART,
    FAILSAFE_DEADMAN,
    FAILSAFE_HOLD,
    FAILSAFE_RECOVERED,
    FAILSAFE_RETRY,
    GATED_OFF,
    GATED_WAKE,
    TOPOLOGY_OFF,
    TOPOLOGY_ON,
    DecisionLog,
)
from repro.sim.channel import ChannelState

_OFF = ChannelState.OFF


@dataclass(frozen=True)
class FailsafeConfig:
    """Guard behavior knobs.

    Attributes:
        staleness_ttl_epochs: How many consecutive dark epochs the
            bounded-staleness fallback holds the last good decision
            before the deadman takes over.
        controller_timeout_epochs: Guard epochs without the
            controller's ``epochs_run`` advancing before it is
            presumed crashed.
        retry_max_epochs: Ceiling on the exponential retry backoff.
        floor_rate: The deadman's safe rate floor (Gb/s); ``None``
            uses the ladder minimum.
        pressure_queue_fraction: While a group's telemetry is dark,
            the guard watches the **real** output-queue occupancy
            (instantaneous, measured in the switch the guard lives
            in — reading it does not perturb the delta-based epoch
            counters).  Above this fraction the group is stepped one
            ladder rate up: a held or floored link that is visibly
            backing up must not stay slow just because its reports
            are lost.
        journal_cap: Hard bound on the power-intent journal: a layer
            that invents transient group labels degrades to counted
            oldest-entry eviction, never to unbounded memory.
    """

    staleness_ttl_epochs: int = 3
    controller_timeout_epochs: int = 2
    retry_max_epochs: int = 8
    floor_rate: Optional[float] = None
    pressure_queue_fraction: float = 0.5
    journal_cap: int = 4096


class _GroupState:
    """Per-group guard journal."""

    __slots__ = ("last_good_rate", "intended_rate", "intended_epoch",
                 "retry_attempt", "next_retry_epoch")

    def __init__(self):
        self.last_good_rate: Optional[float] = None
        self.intended_rate: Optional[float] = None
        self.intended_epoch = -1
        self.retry_attempt = 0
        self.next_retry_epoch = 0


class GuardedGroup:
    """A group as the controller sees it through the failsafe guard.

    Telemetry reads pass straight through (the guard observes the same
    lossy channel the controller does); actuations are filtered by the
    guard's staleness veto and journaled for retry.  Rate and power
    state are hardware state, which a chaos proxy only delegates, so
    they are read from the raw group directly.
    """

    def __init__(self, inner, guard: "FailsafeGuard"):
        self._inner = inner
        self._raw = getattr(inner, "raw", inner)
        self._guard = guard
        self.name = inner.name
        self.channels = inner.channels
        self.channel_names = tuple(ch.name for ch in self.channels)
        self._st = _GroupState()

    @property
    def raw(self):
        """The real group (beneath any chaos proxy): the guard's
        switch-local action path."""
        return self._raw

    @property
    def current_rate(self) -> float:
        """The real group's configured rate."""
        return self._raw.current_rate

    @property
    def is_off(self) -> bool:
        """Whether the real group is powered off."""
        return self._raw.is_off

    def utilization_since_last(self, epoch_ns: float) -> float:
        """Pass-through: the guard reads the same (possibly lossy)
        telemetry channel the controller does."""
        return self._inner.utilization_since_last(epoch_ns)

    def max_queue_fraction(self) -> float:
        """Pass-through queue occupancy (possibly chaos-mangled)."""
        return self._inner.max_queue_fraction()

    def credit_stalls_since_last(self) -> int:
        """Pass-through credit-stall count (possibly chaos-mangled)."""
        return self._inner.credit_stalls_since_last()

    def set_rate(self, rate_gbps: float, reactivation_ns: float) -> bool:
        """Route the controller's actuation through the guard's
        staleness veto and intent journal."""
        return self._guard.filter_actuation(self, rate_gbps,
                                            reactivation_ns)

    def __repr__(self) -> str:
        return f"GuardedGroup({self._inner!r})"


class FailsafeGuard:
    """Wraps a controller's groups and survives control-plane chaos.

    Must be attached *after* any
    :class:`~repro.faults.control_faults.ControlPlaneChaos` layer, so
    the wrapping order is controller -> guard -> chaos -> fabric: the
    guard filters the controller's decisions, and its retries travel
    the same lossy actuation path the controller's commands do, while
    its safety wakes act on the raw group (switch-local hardware).

    Args:
        controller: Any :class:`~repro.core.controller.EpochController`
            (subclasses included).  Its ``groups`` list is wrapped in
            place.
        config: Guard knobs.
        decision_log: The run's decision log; the guard registers a
            tap to journal power events for crash recovery and logs
            its own ``failsafe_*`` actions.
        seed: Seeds the retry-backoff jitter (hashed string seeding:
            ``PYTHONHASHSEED``-independent).
    """

    def __init__(self, controller, config: Optional[FailsafeConfig] = None,
                 decision_log: Optional[DecisionLog] = None, seed: int = 0):
        self.controller = controller
        self.config = config if config is not None else FailsafeConfig()
        self.network = controller.network
        self.sim = self.network.sim
        self.epoch_ns = controller.config.effective_epoch_ns
        self.reactivation_ns = controller.config.reactivation_ns
        self.decision_log = decision_log
        self.seed = seed
        ladder = self.network.config.ladder
        self.ladder = ladder
        self.floor = (self.config.floor_rate
                      if self.config.floor_rate is not None
                      else ladder.min_rate)
        self.groups = [GuardedGroup(group, self)
                       for group in controller.groups]
        controller.groups = self.groups
        self.holds = 0
        self.deadman_floors = 0
        self.pressure_ups = 0
        self.retries = 0
        self.recoveries = 0
        self.reconfigurations = 0
        self.controller_down_epochs = 0
        # A demand-darkened link group is exactly as strandable as a
        # gated one.
        self.power_journal = PowerJournal(
            (GATED_OFF, TOPOLOGY_OFF), (GATED_WAKE, TOPOLOGY_ON),
            restart_reasons=(CONTROL_FAULT_RESTART,),
            cap=self.config.journal_cap)
        self._last_epochs_run = controller.epochs_run
        self._silent = 0
        if decision_log is not None:
            decision_log.taps.append(self.power_journal.observe)
        # Scheduled after the controller's epoch event, so the FIFO
        # tie-break on same-time events runs the guard right after the
        # controller every epoch.
        self._event = self.sim.schedule(self.epoch_ns, self._on_epoch,
                                        daemon=True)

    # -- actuation filter (called via GuardedGroup.set_rate) -------------

    def filter_actuation(self, group: GuardedGroup, rate_gbps: float,
                         reactivation_ns: float) -> bool:
        """Veto stale-input decisions; journal and forward the rest."""
        st = group._st
        inner = group._inner
        if (getattr(inner, "delivered_ok", True) is False
                and st.last_good_rate is not None):
            # Bounded staleness: this decision was computed from a
            # zeroed reading.  Hold the last decision made on good
            # telemetry instead (past the TTL the epoch pass enforces
            # the deadman posture; the veto stays — dark input never
            # drives the fabric).
            self.holds += 1
            self._log(group, FAILSAFE_HOLD, old_rate=group.current_rate,
                      new_rate=st.last_good_rate, changed=False)
            return False
        st.last_good_rate = rate_gbps
        st.intended_rate = rate_gbps
        st.intended_epoch = self.epoch_index(self.sim.now)
        changed = inner.set_rate(rate_gbps, reactivation_ns)
        if changed:
            st.retry_attempt = 0
        return changed

    # -- the guard's own epoch pass --------------------------------------

    def epoch_index(self, now: float) -> int:
        """Epoch ordinal at ``now`` (same basis as the chaos layer)."""
        return int(round(now / self.epoch_ns))

    def _on_epoch(self) -> None:
        controller = self.controller
        if controller.epochs_run == self._last_epochs_run:
            self._silent += 1
        else:
            self._silent = 0
            self._last_epochs_run = controller.epochs_run
        down = self._silent >= self.config.controller_timeout_epochs
        if down:
            self.controller_down_epochs += 1
        epoch = self.epoch_index(self.sim.now)
        for group in self.groups:
            self._tend(group, epoch, down)
        self._event = self.sim.schedule(self.epoch_ns, self._on_epoch,
                                        daemon=True)

    def _tend(self, group: GuardedGroup, epoch: int, down: bool) -> None:
        st = group._st
        raw = group._raw
        streak = getattr(group._inner, "lost_streak", 0)
        off = draining = False
        for ch in raw.channels:
            if ch.state is _OFF:
                off = True
            if ch.draining:
                draining = True
        dark = off or draining
        rung = staleness(streak, self.config.staleness_ttl_epochs, down)
        if rung == FLOOR:
            # Deadman: nobody can verify this group is safe to leave
            # dark.  Force it on at (at least) the floor; never lower
            # a live link's rate.
            if dark:
                self._wake(group, self.floor, FAILSAFE_DEADMAN)
                self.deadman_floors += 1
            else:
                self._maybe_relieve(group, raw)
                self._release_gate(group.name)
            return
        if rung == HOLD:
            # Inside the staleness TTL: if gating powered the group
            # off on dark telemetry, restore the last good posture.
            if dark:
                rate = (st.last_good_rate if st.last_good_rate is not None
                        else self.floor)
                self._wake(group, rate, FAILSAFE_HOLD)
                self.holds += 1
            else:
                self._maybe_relieve(group, raw)
            return
        if off:
            self._maybe_recover(group, raw, st)
        self._maybe_retry(group, raw, st, epoch)

    def _maybe_recover(self, group: GuardedGroup, raw, st) -> None:
        """Wake a powered-off group a crashed-and-restarted controller
        forgot (``_tend`` calls it only for powered-off groups); a
        group gated by the *current* controller is left to it."""
        if not self.power_journal.gated_before_restart(group.name):
            return
        rate = (st.last_good_rate if st.last_good_rate is not None
                else self.floor)
        self._wake(group, rate, FAILSAFE_RECOVERED)
        self.recoveries += 1

    def _maybe_retry(self, group: GuardedGroup, raw, st,
                     epoch: int) -> None:
        """Re-issue a lost actuation with seeded exponential backoff."""
        if st.intended_rate is None:
            return
        for ch in raw.channels:
            if ch.state is _OFF:
                return
            if ch._pending_rate is not None:
                return  # still applying; judge it next epoch
        if raw.current_rate == st.intended_rate:
            st.retry_attempt = 0
            return
        if epoch <= st.intended_epoch:
            return  # decided this very epoch; give it one to land
        if st.retry_attempt > 0 and epoch < st.next_retry_epoch:
            return
        old_rate = raw.current_rate
        st.retry_attempt += 1
        backoff = min(self.config.retry_max_epochs,
                      2 ** (st.retry_attempt - 1))
        jitter = int(keyed_draw(
            f"failsafe:{self.seed}:{group.name}:{st.retry_attempt}") < 0.5)
        st.next_retry_epoch = epoch + backoff + jitter
        # The retry travels the same lossy actuation path the
        # controller's command did — it may be lost again, hence the
        # backoff.
        changed = group._inner.set_rate(st.intended_rate,
                                        self.reactivation_ns)
        self.retries += 1
        if changed:
            self.reconfigurations += 1
        self._log(group, FAILSAFE_RETRY, old_rate=old_rate,
                  new_rate=st.intended_rate, changed=changed)

    def _maybe_relieve(self, group: GuardedGroup, raw) -> None:
        """Queue-pressure relief while telemetry is dark.

        The guard is switch-local, so it can read the *real* queue
        occupancy (instantaneous — reading it does not consume the
        delta counters the controller samples).  A held or floored
        group whose queues are visibly backing up is stepped one
        ladder rate up: lost reports must not pin a congested link
        slow.  Like the deadman, this only ever adds capacity.
        """
        if any(ch._pending_rate is not None for ch in raw.channels):
            return  # a rate change is already in flight
        if raw.max_queue_fraction() <= self.config.pressure_queue_fraction:
            return
        current = raw.current_rate
        target = next((r for r in self.ladder.rates if r > current), None)
        if target is None:
            return  # already at the top of the ladder
        changed = raw.set_rate(target, self.reactivation_ns)
        if changed:
            self.reconfigurations += 1
            self.pressure_ups += 1
            # Raising capacity restarts the hold baseline: a later
            # veto should hold this relieved rate, not the stale one.
            st = group._st
            if (st.last_good_rate is not None
                    and st.last_good_rate < target):
                st.last_good_rate = target
            self._log(group, FAILSAFE_DEADMAN, old_rate=current,
                      new_rate=target, changed=True)

    # -- safety actions ----------------------------------------------------

    def _wake(self, group: GuardedGroup, rate_gbps: float,
              reason: str) -> None:
        """Power a dark group back on at ``rate_gbps`` and release its
        gating claim (switch-local: acts on the raw channels, not the
        lossy command path)."""
        for ch in group.raw.channels:
            ch.wake(self.reactivation_ns, rate_gbps=rate_gbps)
        # Controller decisions for this group restart from scratch.
        group._st.intended_rate = None
        self.power_journal.put(group.name, ON, self.sim.now)
        self._log(group, reason, old_rate=None, new_rate=rate_gbps,
                  changed=False)
        self._release_gate(group.name)

    def _release_gate(self, name: str) -> None:
        release = getattr(self.controller, "release_gate", None)
        if release is not None:
            release(name)

    # -- audit -------------------------------------------------------------

    def _log(self, group: GuardedGroup, reason: str,
             old_rate: Optional[float], new_rate: Optional[float],
             changed: bool) -> None:
        if self.decision_log is None:
            return
        self.decision_log.record(
            self.sim.now, "failsafe", group.name, group.channel_names,
            old_rate, new_rate, reason, changed)

    def digest(self) -> Dict[str, object]:
        """JSON-safe guard accounting for the run summary."""
        return {
            "holds": self.holds,
            "deadman_floors": self.deadman_floors,
            "pressure_ups": self.pressure_ups,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "reconfigurations": self.reconfigurations,
            "controller_down_epochs": self.controller_down_epochs,
        }

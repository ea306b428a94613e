"""Power gating: the shared dark-link core and the fault-aware controller.

:class:`GatingEpochController` is the core every controller that takes
whole link groups dark builds on (this module's
:class:`FaultAwareEpochController` and
:class:`repro.topo.controller.DemandAwareTopologyController`).  The
fault-aware controller registers two modes:

- ``fault_gated`` — an *aggressive* power-gating controller: a group
  whose sensor estimate stays below ``GatingConfig.off_estimate`` for
  ``idle_epochs`` consecutive epochs is drained and powered fully off,
  then probed awake after ``sleep_epochs``.  It trusts its sensor
  completely, which is the unprotected failure mode: a stuck-at-zero
  sensor (or a fault taking out the detour links) lets rate-scaling
  cooperate with faults to disconnect the fabric.
- ``fault_pinned`` — the same gating policy, but a
  :class:`SpanningSetGuard` pins the per-dimension **ring** at
  minimum-rate-on — exactly the paper's Section 5.1 torus degradation,
  and what :class:`~repro.routing.restricted.RestrictedAdaptiveRouting`
  falls back on (it only ever offers the direct hop or an adjacent ring
  step), so every restricted route stays realizable.  Gating requests
  against pinned links are refused (``pinned_hold``), so whatever the
  sensors claim and whatever links fault out, the controller itself
  never removes the last usable path.

Gating power events are recorded with ``changed=False`` reasons
(``gated_off`` / ``gated_wake`` / ``pinned_hold``) so the transition
audit — ``transition_counts`` summing exactly to ``reconfigurations``
— is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.controller import ControllerConfig, EpochController
from repro.obs.decisions import GATED_OFF, GATED_WAKE, PINNED_HOLD
from repro.sim.channel import ChannelState

Link = Tuple[int, int]

_OFF = ChannelState.OFF


@dataclass(frozen=True)
class GatingConfig:
    """Power-gating aggressiveness.

    Attributes:
        off_estimate: Sensor estimates at or below this count as idle.
        idle_epochs: Consecutive idle epochs before gating off.
        sleep_epochs: Epochs to stay off before probing awake.
    """

    off_estimate: float = 0.05
    idle_epochs: int = 3
    sleep_epochs: int = 8


class SpanningSetGuard:
    """Connectivity oracle for deliberate power-off decisions.

    Pins the per-dimension ring of links a controller must keep on
    (``pinned``, recomputed by :meth:`refresh` over the links that are
    not fault-dark) and answers whether a link may go dark at all
    (:meth:`may_power_off`): a power-off is vetoed when the link is
    pinned, or when the links that would remain *usable* — lit, not
    fault-dark, not already darkened — no longer connect every switch.
    The spanning set alone is not enough once faults land on it: the
    faulted pinned link is unavailable, and the guard must then refuse
    to remove whatever unpinned link is carrying its detours.

    The gating controller uses only the pinned set; the topology
    controller uses both halves and counts ``violations``.

    Args:
        network: The fabric being guarded.
    """

    def __init__(self, network):
        self.topology = network.topology
        self.num_switches = network.topology.num_switches
        self.pinned: FrozenSet[Link] = frozenset()
        # The ring depends only on the topology: derive it once.
        self._ring = self.ring_links()
        #: Post-decision connectivity self-checks that failed.  Stays
        #: zero unless the guard itself is broken; campaign verdicts
        #: gate on it.
        self.violations = 0

    def ring_links(self) -> List[Link]:
        """The per-dimension ring: every adjacent-coordinate link."""
        topo = self.topology
        links: Set[Link] = set()
        for switch in range(topo.num_switches):
            coord = topo.coordinate(switch)
            for dim in range(topo.dimensions):
                digit = (coord[dim] + 1) % topo.k
                peer = topo.peer_in_dimension(switch, dim, digit)
                if peer != switch:
                    links.add((min(switch, peer), max(switch, peer)))
        return sorted(links)

    def refresh(self, available: List[Link]) -> FrozenSet[Link]:
        """Recompute the pinned set over the currently available links.

        ``available`` excludes fault-dark links — the guard pins what
        it can still actually hold on; a faulted ring segment is
        routed around by the unpinned remainder until repair.
        """
        avail = set(available)
        self.pinned = frozenset(link for link in self._ring
                                if link in avail)
        return self.pinned

    def connected(self, usable: Set[Link]) -> bool:
        """Do ``usable`` links connect all switches (BFS)?"""
        if self.num_switches <= 1:
            return True
        adjacency: Dict[int, List[int]] = {}
        for a, b in usable:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for peer in adjacency.get(node, ()):
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == self.num_switches

    def may_power_off(self, link: Link, usable: Set[Link]) -> bool:
        """May ``link`` go dark, given the currently usable links?

        ``usable`` must already exclude fault-dark and deliberately
        darkened links; the check is that the remainder *without*
        ``link`` stays pinned-safe and connected.
        """
        return link not in self.pinned and self.connected(usable - {link})


def link_endpoints(network, groups) -> Dict[str, Link]:
    """Group name -> undirected link endpoints, for the groups that
    drive inter-switch channels (host-link groups are never gated,
    pinned or darkened, so they have no entry)."""
    by_channel = {id(ch): key for key, ch
                  in network.switch_channel_map().items()}
    endpoints: Dict[str, Link] = {}
    for group in groups:
        key = by_channel.get(id(group.channels[0]))
        if key is not None:
            a, b = key
            endpoints[group.name] = (min(a, b), max(a, b))
    return endpoints


class GatingEpochController(EpochController):
    """Epoch controller that takes whole inter-switch groups dark.

    Each epoch runs the subclass's ``_gating_pass()`` first, then the
    inherited rate decisions, which skip the groups in ``_dark`` (this
    controller's own, draining or off).  Subclasses also define
    ``_wake(group, ladder)``; both go dark and light through
    :meth:`_darken` and :meth:`_light`, which drive
    :meth:`~repro.sim.channel.Channel.drain` and
    :meth:`~repro.sim.channel.Channel.wake`.

    The dark set is volatile: a cold restart forgets which groups this
    controller darkened, the stranded-group hazard
    :class:`repro.core.failsafe.FailsafeGuard` recovers from (it wakes
    the group and calls :meth:`release_gate`).
    """

    def __init__(self, network, policy=None,
                 config: ControllerConfig = ControllerConfig(),
                 groups=None, sensor=None, decision_log=None,
                 guard: Optional[SpanningSetGuard] = None,
                 name: str = "gating"):
        super().__init__(network, policy=policy, config=config,
                         groups=groups, sensor=sensor,
                         decision_log=decision_log, name=name)
        self.guard = guard
        self._endpoints = link_endpoints(network, self.groups)
        self._dark: Set[str] = set()
        # _candidates() is rebuilt only when self.groups is replaced
        # (chaos and failsafe layers swap in their proxies after
        # construction).
        self._candidates_of: Optional[List] = None
        self._candidate_groups: List = []
        if guard is not None:
            self._refresh_guard()

    # -- link bookkeeping ----------------------------------------------

    def _candidates(self):
        """Inter-switch groups, in stable group order."""
        groups = self.groups
        if groups is not self._candidates_of:
            self._candidates_of = groups
            self._candidate_groups = [
                g for g in groups if self._endpoints.get(g.name) is not None]
        return self._candidate_groups

    def _fault_dark(self, group) -> bool:
        """Down for reasons outside this controller's own decisions?"""
        if group.name in self._dark:
            return False
        for ch in group.channels:
            if ch.state is _OFF or ch.draining:
                return True
        return False

    def _refresh_guard(self) -> None:
        available = [self._endpoints[group.name]
                     for group in self._candidates()
                     if not self._fault_dark(group)]
        self.guard.refresh(sorted(set(available)))

    def _pinned(self, group) -> bool:
        return (self.guard is not None
                and self._endpoints.get(group.name) in self.guard.pinned)

    def _reset_volatile_state(self) -> None:
        """Cold restart forgets which groups *we* darkened."""
        super()._reset_volatile_state()
        self._dark.clear()

    def release_gate(self, name: str) -> None:
        """Drop this controller's claim on a group an external actor
        (the failsafe guard) woke, so it is not re-drained as if it
        were still asleep."""
        self._dark.discard(name)

    # -- the epoch loop ------------------------------------------------

    def _on_epoch(self) -> None:
        if self._stopped:
            return
        self._gating_pass()
        super()._on_epoch()

    def _decide_group(self, group, reading, ladder, now, log):
        if group.name in self._dark:
            # Draining toward off; no rate decisions until it wakes.
            return None
        return super()._decide_group(group, reading, ladder, now, log)

    # -- actuation -----------------------------------------------------

    def _darken(self, group, reason: str, old_rate: Optional[float],
                forecast: Optional[float] = None) -> None:
        """Drain ``group`` toward off (each channel powers off once it
        empties) and audit it."""
        for ch in group.channels:
            ch.drain()
        self._dark.add(group.name)
        self._log_power(group, reason, old_rate, None, forecast=forecast)

    def _finish_drains(self) -> None:
        """Power off the channels of dark groups that have emptied."""
        for group in self._candidates():
            if group.name in self._dark:
                for ch in group.channels:
                    ch.finish_drain()

    def _light(self, group, ladder, reason: str,
               audit_reactivation_ns: float = 0.0) -> None:
        """Wake ``group`` at the slowest rate, drop every claim on it
        (:meth:`release_gate`) and audit it with
        ``audit_reactivation_ns``."""
        for ch in group.channels:
            ch.wake(self.config.reactivation_ns, rate_gbps=ladder.min_rate)
        self.release_gate(group.name)
        self._log_power(group, reason, None, ladder.min_rate,
                        reactivation_ns=audit_reactivation_ns)

    def _wake_pinned(self, ladder) -> None:
        """Wake dark groups the freshly refreshed guard now pins:
        faults made them part of the spanning set."""
        for group in self._candidates():
            if group.name in self._dark and self._pinned(group):
                self._wake(group, ladder)

    def _log_power(self, group, reason: str, old_rate: Optional[float],
                   new_rate: Optional[float], reactivation_ns: float = 0.0,
                   forecast: Optional[float] = None) -> None:
        """One ``changed=False`` power-event record."""
        if self.decision_log is None:
            return
        self.decision_log.record(
            self.network.sim.now, self.name, group.name,
            group.channel_names, old_rate, new_rate, reason, False,
            reactivation_ns=reactivation_ns, forecast_gbps=forecast)


class FaultAwareEpochController(GatingEpochController):
    """Gating controller with an optional pinned spanning set.

    With ``guard=None`` this is the unprotected ``fault_gated``
    controller; with a :class:`SpanningSetGuard` it is
    ``fault_pinned``.  Everything else — epoch cadence, sensors,
    policy, the rate ladder — is the base reactive controller.
    """

    def __init__(self, network, policy=None,
                 config: ControllerConfig = ControllerConfig(),
                 groups=None, sensor=None, decision_log=None,
                 gating: GatingConfig = GatingConfig(),
                 guard: Optional[SpanningSetGuard] = None,
                 name: str = "fault_gated"):
        super().__init__(network, policy=policy, config=config,
                         groups=groups, sensor=sensor,
                         decision_log=decision_log, guard=guard, name=name)
        self.gating = gating
        self._idle: Dict[str, int] = {}
        self._asleep: Dict[str, int] = {}
        self.gated_offs = 0
        self.gated_wakes = 0
        self.pinned_holds = 0

    def _reset_volatile_state(self) -> None:
        """Cold restart forgets gating bookkeeping.

        After a :meth:`~repro.core.controller.EpochController.
        cold_restart` the replacement process no longer knows which
        groups *it* powered off: the gating pass only probes its own
        dark groups awake, so a gated-off link would stay dark
        forever.  This is deliberate — stranding powered-off links is
        exactly the crash hazard the failsafe guard's recovery path
        (:class:`repro.core.failsafe.FailsafeGuard`) exists to catch.
        """
        super()._reset_volatile_state()
        self._idle.clear()
        self._asleep.clear()

    def release_gate(self, name: str) -> None:
        """Drop gating claims on a group an external actor woke.

        Besides the dark claim, forget its sleep timer and the stale
        idle streak accrued while telemetry was dark, so it is not
        immediately gated off again.
        """
        super().release_gate(name)
        self._asleep.pop(name, None)
        self._idle[name] = 0

    def _gating_pass(self) -> None:
        """Count sleep, wake sleepers, finish drains, re-pin."""
        ladder = self.network.config.ladder
        for group in self._candidates():
            name = group.name
            if name in self._dark and all(ch.is_off
                                          for ch in group.channels):
                self._asleep[name] = self._asleep.get(name, 0) + 1
                if self._asleep[name] >= self.gating.sleep_epochs:
                    self._wake(group, ladder)
        self._finish_drains()
        if self.guard is not None:
            self._refresh_guard()
            self._wake_pinned(ladder)

    def _wake(self, group, ladder) -> None:
        self._light(group, ladder, GATED_WAKE)
        self.gated_wakes += 1

    def _estimate(self, group, reading) -> float:
        # Sensor cross-check: a link whose output queue is backing up
        # is not idle, whatever its (possibly stuck) sensor claims.
        # The queue occupancy is measured in the switch itself, not the
        # sensor path, so it stays honest under sensor faults — this is
        # what lets a pinned ring ramp up under detour pressure instead
        # of being held at the minimum rate by a stuck-at-zero sensor.
        return max(super()._estimate(group, reading),
                   reading.queue_fraction)

    def _decide_group(self, group, reading, ladder, now, log):
        current = group.current_rate
        estimate = super()._decide_group(group, reading, ladder, now, log)
        if estimate is None:
            return None
        # Gating bookkeeping runs on the *estimate*: the controller
        # trusts its sensor, stuck or not — that trust is the hazard
        # the pinned spanning set exists to bound.
        name = group.name
        if estimate <= self.gating.off_estimate:
            self._idle[name] = self._idle.get(name, 0) + 1
        else:
            self._idle[name] = 0
        if (self._idle[name] < self.gating.idle_epochs
                or self._endpoints.get(name) is None):
            return estimate  # host links are never gated
        self._idle[name] = 0
        if self._pinned(group):
            self.pinned_holds += 1
            self._log_power(group, PINNED_HOLD, group.current_rate,
                            group.current_rate)
        else:
            self._darken(group, GATED_OFF, current)
            self.gated_offs += 1
        return estimate

    def faults_summary(self) -> Dict[str, object]:
        """JSON-safe campaign-side accounting for the run summary."""
        return {
            "controller": self.name,
            "gated_offs": self.gated_offs,
            "gated_wakes": self.gated_wakes,
            "pinned_holds": self.pinned_holds,
            "gated_now": len(self._dark),
            "pinned_links": (len(self.guard.pinned)
                             if self.guard is not None else 0),
        }

"""Fault-aware rate control: gating with a pinned spanning set.

Two controllers, built on the reactive
:class:`~repro.core.controller.EpochController`:

- ``fault_gated`` — an *aggressive* power-gating controller: a group
  whose sensor estimate stays below ``GatingConfig.off_estimate`` for
  ``idle_epochs`` consecutive epochs is drained and powered fully off,
  then probed awake after ``sleep_epochs``.  It trusts its sensor
  completely, which is the unprotected failure mode: a stuck-at-zero
  sensor (or a fault taking out the detour links) lets rate-scaling
  cooperate with faults to disconnect the fabric.
- ``fault_pinned`` — the same gating policy, but a
  :class:`SpanningSetGuard` pins a configurable spanning set of links
  at minimum-rate-on.  Gating requests against pinned links are
  refused (``pinned_hold``), so whatever the sensors claim and
  whatever links fault out, the controller itself never removes the
  last usable path.

The default spanning set is the per-dimension **ring** — exactly the
paper's Section 5.1 torus degradation.  The ring is what
:class:`~repro.routing.restricted.RestrictedAdaptiveRouting` falls back
on (it only ever offers the direct hop or an adjacent ring step), so
pinning it keeps every restricted route realizable; a generic Kruskal
spanning ``tree`` mode exists for non-FBFLY fabrics and tests.

Gating power events are recorded with ``changed=False`` reasons
(``gated_off`` / ``gated_wake`` / ``pinned_hold``) so the transition
audit — ``transition_counts`` summing exactly to ``reconfigurations``
— is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.controller import ControllerConfig, EpochController
from repro.obs.decisions import (
    GATED_OFF,
    GATED_WAKE,
    PINNED_HOLD,
    classify_reason,
)

Link = Tuple[int, int]


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

    Chooses the spanning set of links a controller must keep on
    (``pinned``, recomputed by :meth:`refresh` over the links that are
    not fault-dark) and answers whether a link may go dark at all
    (:meth:`may_power_off`): a power-off is vetoed when the link is
    pinned, or when the links that would remain *usable* — lit, not
    fault-dark, not already darkened — no longer connect every switch.
    The spanning set alone is not enough once faults land on it: the
    faulted pinned link is unavailable, and the guard must then refuse
    to remove whatever unpinned link is carrying its detours.

    The gating controller uses only the pinned set; the topology
    controller uses both halves and counts ``vetoes`` and
    ``violations``.

    Args:
        network: The fabric being guarded.
        mode: ``"ring"`` pins each dimension's adjacent-coordinate
            ring (the Section 5.1 torus floor, matched to restricted
            routing's detour structure); ``"tree"`` pins a
            deterministic Kruskal spanning forest of whatever links
            are available.
    """

    def __init__(self, network, mode: str = "ring"):
        if mode not in ("ring", "tree"):
            raise ValueError(f"unknown spanning-set mode {mode!r}")
        self.network = network
        self.topology = network.topology
        self.num_switches = network.topology.num_switches
        self.mode = mode
        self.pinned: FrozenSet[Link] = frozenset()
        # The ring depends only on the topology: derive it once.
        self._ring = self.ring_links() if mode == "ring" else None
        #: Power-offs refused by :meth:`may_power_off`.
        self.vetoes = 0
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

    def _spanning_forest(self, links: List[Link]) -> List[Link]:
        """Deterministic Kruskal over sorted links (union-find)."""
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        chosen = []
        for a, b in links:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                chosen.append((a, b))
        return chosen

    def refresh(self, available: List[Link]) -> FrozenSet[Link]:
        """Recompute the pinned set over the currently available links.

        ``available`` excludes fault-dark links — the guard pins what
        it can still actually hold on; a faulted ring segment is
        routed around by the unpinned remainder until repair.
        """
        avail = set(available)
        if self.mode == "ring":
            pinned = [link for link in self._ring if link in avail]
        else:
            pinned = self._spanning_forest(sorted(avail))
        self.pinned = frozenset(pinned)
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
        if link in self.pinned or not self.connected(usable - {link}):
            self.vetoes += 1
            return False
        return True


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


class FaultAwareEpochController(EpochController):
    """Epoch controller with power-gating and an optional spanning set.

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
                         decision_log=decision_log, name=name)
        self.gating = gating
        self.guard = guard
        self._endpoints = link_endpoints(network, self.groups)
        self._idle: Dict[str, int] = {}
        self._gated: Set[str] = set()
        self._asleep: Dict[str, int] = {}
        self.gated_offs = 0
        self.gated_wakes = 0
        self.pinned_holds = 0
        if self.guard is not None:
            self._refresh_guard()

    # ------------------------------------------------------------------

    def _fault_dark(self, group) -> bool:
        """Is this group down for reasons outside our own gating?"""
        if group.name in self._gated:
            return False
        return any(ch.is_off or ch.draining for ch in group.channels)

    def _refresh_guard(self) -> None:
        available = [link for group in self.groups
                     if (link := self._endpoints.get(group.name))
                     is not None and not self._fault_dark(group)]
        self.guard.refresh(sorted(set(available)))

    def _pinned(self, group) -> bool:
        if self.guard is None:
            return False
        link = self._endpoints.get(group.name)
        return link is not None and link in self.guard.pinned

    # ------------------------------------------------------------------

    def _reset_volatile_state(self) -> None:
        """Cold restart forgets gating bookkeeping.

        After a :meth:`~repro.core.controller.EpochController.
        cold_restart` the replacement process no longer knows which
        groups *it* powered off: ``_campaign_pass`` only probes groups
        in ``_gated`` awake, so a gated-off link would stay dark
        forever.  This is deliberate — stranding powered-off links is
        exactly the crash hazard the failsafe guard's recovery path
        (:class:`repro.core.failsafe.FailsafeGuard`) exists to catch.
        """
        super()._reset_volatile_state()
        self._idle.clear()
        self._gated.clear()
        self._asleep.clear()

    def release_gate(self, name: str) -> None:
        """Drop gating claims on a group an external actor woke.

        The failsafe guard calls this after powering a stranded group
        back on so the controller does not immediately re-drain a link
        it still believes is asleep (or re-gate it off the stale idle
        streak accrued while telemetry was dark).
        """
        self._gated.discard(name)
        self._asleep.pop(name, None)
        self._idle[name] = 0

    # ------------------------------------------------------------------

    def _on_epoch(self) -> None:
        if self._stopped:
            return
        self._campaign_pass()
        super()._on_epoch()

    def _campaign_pass(self) -> None:
        """Pre-epoch housekeeping: drain, sleep, wake, re-pin."""
        ladder = self.network.config.ladder
        for group in self.groups:
            name = group.name
            if name not in self._gated:
                continue
            members = group.channels
            if all(ch.is_off for ch in members):
                self._asleep[name] = self._asleep.get(name, 0) + 1
                if self._asleep[name] >= self.gating.sleep_epochs:
                    self._wake(group, ladder)
            else:
                # Still draining toward off; finish what has drained.
                for ch in members:
                    if not ch.is_off and ch.draining and ch.drained:
                        ch.power_off()
        if self.guard is not None:
            self._refresh_guard()
            for group in self.groups:
                if group.name in self._gated and self._pinned(group):
                    # The guard now needs a link gating already took
                    # down (or started draining): bring it back.
                    self._wake(group, ladder)

    def _wake(self, group, ladder) -> None:
        for ch in group.channels:
            if ch.is_off:
                ch.power_on(self.config.reactivation_ns,
                            rate_gbps=ladder.min_rate)
            else:
                ch.draining = False
        self._gated.discard(group.name)
        self._asleep.pop(group.name, None)
        self._idle[group.name] = 0
        self.gated_wakes += 1
        self._log_power_event(group, GATED_WAKE, old_rate=None,
                              new_rate=ladder.min_rate)

    def _log_power_event(self, group, reason: str,
                         old_rate: Optional[float],
                         new_rate: Optional[float]) -> None:
        if self.decision_log is None:
            return
        self.decision_log.record(
            time_ns=self.network.sim.now, controller=self.name,
            group=group.name,
            channels=group.channel_names,
            old_rate=old_rate, new_rate=new_rate, reason=reason,
            changed=False)

    # ------------------------------------------------------------------

    def _decide_group(self, group, reading, ladder, now, log) -> None:
        name = group.name
        if name in self._gated:
            # Draining toward off; no rate decisions until it sleeps.
            return
        estimate = self.sensor.estimate(group, reading)
        # Sensor cross-check: a link whose output queue is backing up
        # is not idle, whatever its (possibly stuck) sensor claims.
        # The queue occupancy is measured in the switch itself, not the
        # sensor path, so it stays honest under sensor faults — this is
        # what lets a pinned ring ramp up under detour pressure instead
        # of being held at the minimum rate by a stuck-at-zero sensor.
        estimate = max(estimate, reading.queue_fraction)
        current = group.current_rate
        new_rate = self.policy.decide(group, current, estimate, ladder)
        changed = group.set_rate(new_rate, self.config.reactivation_ns)
        if changed:
            self.reconfigurations += 1
        if log is not None:
            log.record(now, self.name, name, group.channel_names,
                       current, new_rate,
                       classify_reason(current, new_rate, changed,
                                       estimate, ladder, self.policy),
                       changed, estimate, reading.utilization,
                       reading.queue_fraction, reading.credit_stalls,
                       self.config.reactivation_ns if changed else 0.0)
        # Gating bookkeeping runs on the *estimate*: the controller
        # trusts its sensor, stuck or not — that trust is the hazard
        # the pinned spanning set exists to bound.
        if estimate <= self.gating.off_estimate:
            self._idle[name] = self._idle.get(name, 0) + 1
        else:
            self._idle[name] = 0
        if self._idle.get(name, 0) < self.gating.idle_epochs:
            return
        if self._endpoints.get(name) is None:
            return  # never gate host links
        if self._pinned(group):
            self.pinned_holds += 1
            self._idle[name] = 0
            self._log_power_event(group, PINNED_HOLD,
                                  old_rate=group.current_rate,
                                  new_rate=group.current_rate)
            return
        for ch in group.channels:
            if not ch.is_off:
                ch.draining = True
                if ch.drained:
                    ch.power_off()
        self._gated.add(name)
        self._idle[name] = 0
        self.gated_offs += 1
        self._log_power_event(group, GATED_OFF, old_rate=current,
                              new_rate=None)

    # ------------------------------------------------------------------

    def faults_summary(self) -> Dict[str, object]:
        """JSON-safe campaign-side accounting for the run summary."""
        return {
            "controller": self.name,
            "gated_offs": self.gated_offs,
            "gated_wakes": self.gated_wakes,
            "pinned_holds": self.pinned_holds,
            "gated_now": len(self._gated),
            "pinned_links": (len(self.guard.pinned)
                             if self.guard is not None else 0),
        }

"""Demand-aware topology control: powering link groups fully off.

The rate ladder (Section 3.3) and the fault campaign both leave the
topology itself fixed; :class:`DemandAwareTopologyController` makes it
the third control axis, co-scheduled with per-channel rates in the same
epoch loop.  Each epoch it

1. aggregates delivered bytes per inter-switch channel into the
   :class:`~repro.topo.demand.DemandMatrixEstimator` (EWMA-smoothed,
   optionally forecast through the :mod:`repro.predict` registry);
2. powers **off** — not just rates down — link groups whose pair
   demand sits below ``off_fraction`` of link capacity, subject to the
   :class:`~repro.faults.policy.SpanningSetGuard`; and
3. powers dark groups back **on** when the *endpoint pressure* (total
   forecast demand touching either endpoint switch, relative to its
   still-powered capacity) exceeds ``on_fraction`` — a dark link's own
   direct demand reads zero forever, so its endpoints' detour load is
   the only honest reactivation signal.

The guard is the fault campaign's spanning-set guard, used in full:
the pinned spanning set is recomputed over links that are not
*fault*-dark, and every power-off is additionally checked against the
**intersection** of topology-dark links and live faults — a BFS over
the links that would remain usable must still reach every switch, so
deliberate power-off can never cooperate with a fault to partition the
fabric.  Refusals are recorded as ``topology_guard_veto``; hysteresis
(``min_dwell_epochs``) suppressions as ``topology_held``; transitions
as ``topology_off`` / ``topology_on`` — all ``changed=False`` records,
so the rate-transition audit is untouched.

The dark-group bookkeeping, the guard refresh, the crash amnesia
(a cold restart forgets which groups *this controller* darkened, the
hazard :class:`repro.core.failsafe.FailsafeGuard` journals
``topology_off``/``topology_on`` records to recover from) and the
drain and wake actuation are the gating core's,
:class:`~repro.faults.policy.GatingEpochController`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.controller import ControllerConfig
from repro.faults.policy import GatingEpochController, SpanningSetGuard
from repro.obs.decisions import (
    TOPOLOGY_GUARD_VETO,
    TOPOLOGY_HELD,
    TOPOLOGY_OFF,
    TOPOLOGY_ON,
)
from repro.topo.demand import DemandMatrixEstimator

Link = Tuple[int, int]


@dataclass(frozen=True)
class TopologyControlConfig:
    """Demand-aware topology policy parameters.

    Attributes:
        off_fraction: A lit link whose worst-direction pair demand sits
            below this fraction of link capacity is a power-off
            candidate.
        on_fraction: A dark link wakes when either endpoint's forecast
            pressure exceeds this fraction of the endpoint's
            still-powered inter-switch capacity.
        min_dwell_epochs: Epochs a group must hold its current
            topology state before it may flip again (hysteresis).
        ewma_alpha: Demand-matrix smoothing weight.
        forecaster: Optional :mod:`repro.predict` forecaster name to
            run topology decisions on forecast demand; ``None`` uses
            the EWMA matrix directly.
        max_dark_fraction: Never darken more than this fraction of the
            gateable (inter-switch) groups, guard permitting or not.
        start_dark: Link classes (:class:`repro.topology.mesh_torus.
            LinkClass` values) powered off at construction — the
            static-degradation arms.
        freeze: Skip per-epoch topology decisions entirely; with
            ``start_dark`` this is a *static* degraded topology under
            ordinary rate control.
    """

    off_fraction: float = 0.05
    on_fraction: float = 0.45
    min_dwell_epochs: int = 4
    ewma_alpha: float = 0.5
    forecaster: Optional[str] = None
    max_dark_fraction: float = 0.5
    start_dark: Tuple[str, ...] = ()
    freeze: bool = False


class DemandAwareTopologyController(GatingEpochController):
    """Epoch controller co-scheduling link rates and topology.

    Rate decisions are inherited unchanged from
    :class:`~repro.core.controller.EpochController`; the topology pass
    is the gating core's pass, run first each epoch, so rate control
    immediately sees (and skips) the groups it darkened.
    """

    def __init__(self, network, policy=None,
                 config: ControllerConfig = ControllerConfig(),
                 groups=None, sensor=None, decision_log=None,
                 topo: TopologyControlConfig = TopologyControlConfig(),
                 guard: Optional[SpanningSetGuard] = None,
                 name: str = "demand_topo"):
        super().__init__(network, policy=policy, config=config,
                         groups=groups, sensor=sensor,
                         decision_log=decision_log,
                         guard=(guard if guard is not None
                                else SpanningSetGuard(network)),
                         name=name)
        self.topo = topo
        #: Inter-switch channels in (src, dst) order, for telemetry.
        self._switch_channels = sorted(network.switch_channel_map().items())
        # _link_state() lives for one topology pass.
        self._in_pass = False
        self._links: Optional[Tuple[FrozenSet[Link], Dict[int, int]]] = None
        forecaster = None
        if topo.forecaster is not None:
            from repro.predict.forecasters import build_forecaster
            forecaster = build_forecaster(topo.forecaster)
        self.demand = DemandMatrixEstimator(
            network.topology.num_switches, ewma_alpha=topo.ewma_alpha,
            forecaster=forecaster)
        self._dwell: Dict[str, int] = {}
        self._last_bytes: Dict[str, int] = {}
        # Accounting surfaced by topo_summary().
        self.topology_offs = 0
        self.topology_ons = 0
        self.topology_holds = 0
        self.guard_vetoes = 0
        self.reactivation_waits = 0
        self.reactivation_wait_ns = 0.0
        self.dark_group_ns = 0.0
        self._dark_per_epoch: List[int] = []
        if topo.start_dark:
            self._apply_start_dark()

    # -- construction helpers ------------------------------------------

    def _apply_start_dark(self) -> None:
        """Statically darken the configured link classes (at t=0 every
        channel is idle, so no drain phase is needed)."""
        from repro.topology.mesh_torus import classify_links
        classes = {link: cls.value for link, cls
                   in classify_links(self.network.topology).items()}
        for group in self._candidates():
            link = self._endpoints[group.name]
            if (classes.get(link) in self.topo.start_dark
                    and self.guard.may_power_off(link, self._usable_links())):
                self._power_off(group)

    # -- link bookkeeping ----------------------------------------------

    def _usable_links(self) -> FrozenSet[Link]:
        """Links routing can use right now: lit and not fault-dark."""
        return self._link_state()[0]

    def _link_state(self) -> Tuple[FrozenSet[Link], Dict[int, int]]:
        """The usable links, and per switch its lit candidate groups.

        Inside a topology pass only this controller's own ``_wake`` and
        ``_power_off`` change which groups are dark or fault-dark, so
        one scan serves every query between them.  Outside a pass
        (faults land between passes) every query rescans.
        """
        if self._links is not None:
            return self._links
        usable = set()
        lit: Dict[int, int] = {}
        for group in self._candidates():
            if group.name in self._dark or self._fault_dark(group):
                continue
            link = self._endpoints[group.name]
            usable.add(link)
            for switch in link:
                lit[switch] = lit.get(switch, 0) + 1
        state = (frozenset(usable), lit)
        if self._in_pass:
            self._links = state
        return state

    # -- crash semantics ------------------------------------------------

    def _reset_volatile_state(self) -> None:
        """Cold restart also forgets dwell clocks and byte counters."""
        super()._reset_volatile_state()
        self._dwell.clear()
        self._last_bytes.clear()

    def release_gate(self, name: str) -> None:
        """Drop topology claims on a group an external actor woke
        (the failsafe guard, after recovering a stranded dark group),
        restarting its dwell clock."""
        super().release_gate(name)
        self._dwell[name] = 0
        self._links = None

    # -- the epoch loop -------------------------------------------------

    def _gating_pass(self) -> None:
        self._in_pass = True
        try:
            self._topology_pass()
        finally:
            self._in_pass = False
            self._links = None

    def _topology_pass(self) -> None:
        epoch_ns = self.config.effective_epoch_ns
        ladder = self.network.config.ladder
        self._ingest_telemetry(epoch_ns)
        self._finish_drains()
        for group in self._candidates():
            name = group.name
            self._dwell[name] = self._dwell.get(name, 0) + 1
        self._refresh_guard()
        if not self.topo.freeze:
            self._wake_pass(ladder)
            self._off_pass(ladder)
        # Pinned links the guard now needs must come back regardless
        # of freeze: a static degraded topology still must not hold a
        # link dark once faults make it the last spanning candidate.
        self._wake_pinned(ladder)
        if not self.guard.connected(self._usable_links()):
            # The intersection hazard: a fault landing *after* a legal
            # power-off can cut the fabric (the guard only vetoes at
            # decision time).  Wake dark groups until the usable links
            # span every switch again — reactivation latency is paid,
            # partition is not.  Only an unfixable disconnection (all
            # remaining cuts are faults, not our power-offs) counts as
            # a guard violation.
            self._reconnect_pass(ladder)
            if not self.guard.connected(self._usable_links()):
                self.guard.violations += 1
        dark_now = len(self._dark)
        self._dark_per_epoch.append(dark_now)
        self.dark_group_ns += dark_now * epoch_ns

    def _reconnect_pass(self, ladder) -> None:
        """Wake topology-dark groups (stable order) until the fabric
        reconnects; a freshly woken channel is usable immediately (it
        reactivates in the background), so this converges within the
        epoch it runs in."""
        for group in self._candidates():
            if group.name not in self._dark:
                continue
            if self.guard.connected(self._usable_links()):
                return
            self._wake(group, ladder)

    def _ingest_telemetry(self, epoch_ns: float) -> None:
        """Delivered Gb/s per inter-switch channel, into the matrix."""
        flows: Dict[Link, float] = {}
        for (src, dst), channel in self._switch_channels:
            sent = channel.stats.bytes_sent
            delta = sent - self._last_bytes.get(channel.name, 0)
            self._last_bytes[channel.name] = sent
            if delta > 0:
                flows[(src, dst)] = delta * 8.0 / epoch_ns
        self.demand.observe(flows)

    def _wake_pass(self, ladder) -> None:
        for group in self._candidates():
            name = group.name
            if name not in self._dark:
                continue
            if self._dwell.get(name, 0) < self.topo.min_dwell_epochs:
                continue
            a, b = self._endpoints[name]
            if max(self._pressure(a, ladder),
                   self._pressure(b, ladder)) > self.topo.on_fraction:
                self._wake(group, ladder)

    def _pressure(self, switch: int, ladder) -> float:
        """Forecast demand touching ``switch`` over its lit capacity."""
        lit = self._link_state()[1].get(switch, 0)
        capacity = max(lit, 1) * ladder.max_rate
        return self.demand.group_pressure(switch) / capacity

    def _off_pass(self, ladder) -> None:
        max_dark = int(self.topo.max_dark_fraction
                       * len(self._candidates()))
        for group in self._candidates():
            name = group.name
            if name in self._dark or self._fault_dark(group):
                continue
            a, b = self._endpoints[name]
            demand = self.demand.pair_forecast(a, b)
            if demand >= self.topo.off_fraction * ladder.max_rate:
                continue
            if len(self._dark) >= max_dark:
                continue
            if self._dwell.get(name, 0) < self.topo.min_dwell_epochs:
                self.topology_holds += 1
                self._log_power(group, TOPOLOGY_HELD, group.current_rate,
                                group.current_rate, forecast=demand)
                continue
            if not self.guard.may_power_off((a, b), self._usable_links()):
                self.guard_vetoes += 1
                self._log_power(group, TOPOLOGY_GUARD_VETO, group.current_rate,
                                group.current_rate, forecast=demand)
                # Vetoed power-offs restart the dwell clock: retrying
                # every epoch against the same guard state is the
                # livelock-adjacent loop the hysteresis exists to damp.
                self._dwell[name] = 0
                continue
            self._power_off(group, forecast=demand)

    # -- actuation ------------------------------------------------------

    def _power_off(self, group, forecast: float = 0.0) -> None:
        self._darken(group, TOPOLOGY_OFF, group.current_rate, forecast)
        self._links = None
        self._dwell[group.name] = 0
        self.topology_offs += 1

    def _wake(self, group, ladder) -> None:
        self._light(group, ladder, TOPOLOGY_ON, self.config.reactivation_ns)
        self.topology_ons += 1
        self.reactivation_waits += 1
        self.reactivation_wait_ns += self.config.reactivation_ns

    # -- reporting ------------------------------------------------------

    def topo_summary(self) -> Dict[str, object]:
        """JSON-safe topology digest for ``SimulationSummary.topo``."""
        per_epoch = self._dark_per_epoch
        return {
            "controller": self.name,
            "epochs": len(per_epoch),
            "dark_mean": (sum(per_epoch) / len(per_epoch)
                          if per_epoch else 0.0),
            "dark_max": max(per_epoch, default=0),
            "dark_final": len(self._dark),
            "dark_group_ns": self.dark_group_ns,
            "topology_offs": self.topology_offs,
            "topology_ons": self.topology_ons,
            "topology_holds": self.topology_holds,
            "guard_vetoes": self.guard_vetoes,
            "guard_violations": self.guard.violations,
            "reactivation_waits": self.reactivation_waits,
            "reactivation_wait_ns": self.reactivation_wait_ns,
            "pinned_links": len(self.guard.pinned),
            "candidates": len(self._candidates()),
        }

"""Dynamic topologies (Section 5.1).

"From a flattened butterfly, we can selectively disable links, thereby
changing the topology to a more conventional mesh or torus ... As the
offered demand increases, we can enable additional wrap-around links to
create a torus with greater bisection bandwidth than the mesh ...
Additional links (which are cabled as part of the topology) are
dynamically powered on as traffic intensity (offered load) increases."

The controller here implements that proposal against switch chips with a
true power-off state:

- Links are classified once (``repro.topology.mesh_torus``) into MESH,
  TORUS_WRAP and EXPRESS classes.
- Every epoch the controller measures delivered inter-switch bandwidth
  relative to the *powered* capacity and moves one mode up or down the
  MESH -> TORUS -> FBFLY ladder when it crosses the thresholds.
- Powering a link *down* is a two-phase drain (``Channel.drain``):
  routing (which must use :class:`~repro.routing.restricted.
  RestrictedAdaptiveRouting`) stops offering it and its output queue
  empties; it is switched off once drained.  Powering *up*
  (``Channel.wake``) pays a normal reactivation.

Host links are never powered off — a host would be disconnected.

Mode transitions are audited: each ``_set_mode`` step emits one
``topology_off`` (stepping down the ladder) or ``topology_on``
(stepping up) record per affected link class into the optional
:class:`~repro.obs.decisions.DecisionLog`, with the mode names in
``old_mode``/``new_mode`` — the same closed taxonomy every other
control path reports through, so degrade decisions are no longer
invisible to the audit layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.obs.decisions import (
    DecisionLog,
    TOPOLOGY_OFF,
    TOPOLOGY_ON,
)
from repro.sim.channel import Channel
from repro.topology.mesh_torus import LinkClass, classify_links
from repro.units import US, gbps_to_bytes_per_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FbflyNetwork


class TopologyMode(enum.IntEnum):
    """Powered-link modes, in increasing bisection (and power) order."""

    MESH = 0
    TORUS = 1
    FBFLY = 2


#: Link classes powered OFF in each mode.
_OFF_CLASSES = {
    TopologyMode.MESH: {LinkClass.TORUS_WRAP, LinkClass.EXPRESS},
    TopologyMode.TORUS: {LinkClass.EXPRESS},
    TopologyMode.FBFLY: set(),
}


@dataclass(frozen=True)
class DynamicTopologyConfig:
    """Dynamic-topology controller parameters.

    The controller watches two signals each epoch:

    - **demand** — delivered inter-switch bytes as a fraction of the
      *full* FBFLY capacity (one absolute scale across modes), and
    - **backpressure** — total backlog (NIC pending bytes plus channel
      output queues).  A saturated degraded mode can deliver little
      while queues explode, so growing backlog forces an upgrade even
      when throughput looks low.

    Attributes:
        epoch_ns: Decision interval; coarser than rate-scaling epochs
            since whole-topology changes are heavier-weight.
        reactivation_ns: Stall paid by each link being powered on.
        upgrade_threshold: Demand fraction above which the controller
            steps the mode up.
        downgrade_threshold: Demand fraction below which it steps down
            (only when there is no backlog to speak of).
        congestion_bytes: Backlog above which the controller upgrades
            regardless of demand.  ``None`` derives it as 10% of the
            bytes the full fabric could move in one epoch.
        start_mode: Initial powered mode.
    """

    epoch_ns: float = 100.0 * US
    reactivation_ns: float = 1.0 * US
    upgrade_threshold: float = 0.35
    downgrade_threshold: float = 0.10
    congestion_bytes: Optional[float] = None
    start_mode: TopologyMode = TopologyMode.FBFLY

    def __post_init__(self) -> None:
        if not 0.0 <= self.downgrade_threshold < self.upgrade_threshold <= 1.0:
            raise ValueError(
                "need 0 <= downgrade < upgrade <= 1, got "
                f"({self.downgrade_threshold}, {self.upgrade_threshold})"
            )
        if self.congestion_bytes is not None and self.congestion_bytes <= 0:
            raise ValueError("congestion_bytes must be positive")


class DynamicTopologyController:
    """Walks the MESH <-> TORUS <-> FBFLY ladder with offered load."""

    def __init__(self, network: "FbflyNetwork",
                 config: DynamicTopologyConfig = DynamicTopologyConfig(),
                 decision_log: Optional[DecisionLog] = None,
                 name: str = "dynamic_topology"):
        self.network = network
        self.config = config
        self.decision_log = decision_log
        self.name = name
        self.mode = config.start_mode
        #: (time_ns, mode) transition history, starting with the initial mode.
        self.mode_history: List[Tuple[float, TopologyMode]] = [
            (network.sim.now, self.mode)
        ]
        self._channel_class: Dict[Channel, LinkClass] = {}
        link_classes = classify_links(network.topology)
        for (a, b), cls in link_classes.items():
            self._channel_class[network.switch_channel(a, b)] = cls
            self._channel_class[network.switch_channel(b, a)] = cls
        self._last_bytes: Dict[Channel, int] = {
            ch: ch.stats.bytes_sent for ch in self._channel_class
        }
        self._stopped = False
        self._apply_mode()
        self._event = network.sim.schedule(config.epoch_ns, self._on_epoch,
                                           daemon=True)

    # ------------------------------------------------------------------

    def mode_time_fractions(self, end_ns: float) -> Dict[str, float]:
        """Share of ``[0, end_ns]`` spent in each mode, by mode name."""
        fractions = {mode: 0.0 for mode in TopologyMode}
        history = self.mode_history + [(end_ns, self.mode)]
        for (t0, mode), (t1, _) in zip(history, history[1:]):
            fractions[mode] += (t1 - t0) / end_ns if end_ns > 0 else 0.0
        return {mode.name: frac for mode, frac in fractions.items()}

    def stop(self) -> None:
        """Cease making decisions; links keep their current state."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    # ------------------------------------------------------------------

    def _on_epoch(self) -> None:
        if self._stopped:
            return
        demand = self._measure_demand()
        backlog = self._measure_backlog()
        threshold = self._congestion_bytes_threshold()
        congested = backlog > threshold
        if ((congested or demand > self.config.upgrade_threshold)
                and self.mode < TopologyMode.FBFLY):
            self._set_mode(TopologyMode(self.mode + 1))
        elif (demand < self.config.downgrade_threshold
                and backlog < threshold / 4.0
                and self.mode > TopologyMode.MESH):
            self._set_mode(TopologyMode(self.mode - 1))
        for ch in self._channel_class:
            ch.finish_drain()
        self._event = self.network.sim.schedule(
            self.config.epoch_ns, self._on_epoch, daemon=True)

    def _measure_demand(self) -> float:
        """Delivered inter-switch bytes relative to the *full* FBFLY
        capacity.

        Normalizing by the full (not currently powered) capacity keeps
        the metric on one absolute scale across modes: upgrading does not
        dilute the signal, so the controller cannot oscillate between a
        saturated cheap mode and an under-utilized rich one.  The
        thresholds are therefore fractions of full-FBFLY throughput; a
        saturated mesh tops out near its ~50% capacity share and crosses
        any upgrade threshold below that.
        """
        delivered = 0
        for ch in self._channel_class:
            sent = ch.stats.bytes_sent
            delivered += sent - self._last_bytes[ch]
            self._last_bytes[ch] = sent
        capacity = (len(self._channel_class)
                    * gbps_to_bytes_per_ns(self.network.config.ladder.max_rate)
                    * self.config.epoch_ns)
        return delivered / capacity if capacity else 1.0

    def _measure_backlog(self) -> float:
        """Bytes waiting anywhere upstream of the inter-switch fabric."""
        pending = sum(host.pending_bytes for host in self.network.hosts)
        queued = sum(ch.queue_bytes for ch in self.network.all_channels())
        return pending + queued

    def _congestion_bytes_threshold(self) -> float:
        if self.config.congestion_bytes is not None:
            return self.config.congestion_bytes
        epoch_capacity = (
            len(self._channel_class)
            * gbps_to_bytes_per_ns(self.network.config.ladder.max_rate)
            * self.config.epoch_ns)
        return 0.10 * epoch_capacity

    def _set_mode(self, mode: TopologyMode) -> None:
        if mode == self.mode:
            return
        old_mode = self.mode
        self.mode = mode
        self.mode_history.append((self.network.sim.now, mode))
        self._log_transition(old_mode, mode)
        self._apply_mode()

    def _log_transition(self, old_mode: TopologyMode,
                        new_mode: TopologyMode) -> None:
        """One audit record per link class this mode step toggles."""
        if self.decision_log is None:
            return
        was_off = _OFF_CLASSES[old_mode]
        now_off = _OFF_CLASSES[new_mode]
        ladder = self.network.config.ladder
        for cls in sorted(was_off ^ now_off, key=lambda c: c.value):
            going_off = cls in now_off
            channels = tuple(sorted(
                ch.name for ch, c in self._channel_class.items()
                if c is cls))
            self.decision_log.record(
                time_ns=self.network.sim.now, controller=self.name,
                group=cls.value, channels=channels,
                old_rate=(ladder.max_rate if going_off else None),
                new_rate=(None if going_off else ladder.max_rate),
                reason=(TOPOLOGY_OFF if going_off else TOPOLOGY_ON),
                changed=False,
                reactivation_ns=(0.0 if going_off
                                 else self.config.reactivation_ns),
                old_mode=old_mode.name, new_mode=new_mode.name)

    def _apply_mode(self) -> None:
        off_classes = _OFF_CLASSES[self.mode]
        for ch, cls in self._channel_class.items():
            if cls in off_classes:
                ch.drain()
            else:
                ch.wake(self.config.reactivation_ns)

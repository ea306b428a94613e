"""Link-fault injection with graceful degradation.

Section 1 of the paper observes that "deactivating a link appears as if
the link is faulty to the routing algorithm" — rate scaling and fault
tolerance exercise the same machinery.  This module makes that explicit:
a :class:`LinkFaultInjector` takes links down (hard power-off, as a
failure) and back up on a schedule, and the adaptive routing layers
(:class:`~repro.routing.restricted.RestrictedAdaptiveRouting` for
FBFLYs) route around them.

Failing a link is a *drain-free* event — unlike the dynamic-topology
controller's graceful drain, a fault strands whatever sat in the output
queue, which the injector re-routes through the owning switch, modelling
link-level retransmission from the sender's buffer.

Degradation semantics (the fault-campaign contract):

- A packet with no usable route is **dropped**, not a crash: the
  injector installs itself as the fabric's ``drop_handler``, accounts
  the drop (packets, bytes, burst clustering) and lets the run
  continue.  Flow-control state is returned before the drop, so the
  post-run conservation invariants still hold
  (``delivered + dropped == injected``).
- Each drop triggers a reachability check
  (:func:`repro.sim.invariants.reachable_switches`).  If the usable
  fabric is *provably disconnected*, a :class:`PartitionEvent` is
  recorded — once per distinct component signature, not once per
  dropped packet.  With ``strict=True`` the injector instead raises a
  structured :class:`PartitionDetected` carrying the components.
- Fault and repair times land in the :class:`~repro.obs.decisions.
  DecisionLog` (reasons ``fault_down``/``fault_repair``/``partition``,
  always ``changed=False``) so campaigns are auditable and render as
  instants on the exported trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.channel import Channel
from repro.sim.invariants import reachable_switches, switch_components

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.fabric import Fabric


@dataclass
class FaultRecord:
    """One injected fault, for reporting.

    ``power_off_timeout`` is set when the faulted channel's serializer
    never drained within the injector's polling budget; the channel
    stays draining (unusable, but accounted at its last rate) until
    repair instead of being polled forever.
    """

    time_ns: float
    link: Tuple[int, int]
    repaired_ns: Optional[float] = None
    stranded_packets: int = 0
    power_off_timeout: bool = False


@dataclass(frozen=True)
class PartitionEvent:
    """One observed disconnection of the usable fabric.

    Attributes:
        time_ns: Simulation time of the drop that proved it.
        src_switch: Switch holding the undeliverable packet.
        dst_switch: Switch the packet needed to reach.
        components: The usable graph's connected components (sorted
            tuples of switch ids) at detection time.
    """

    time_ns: float
    src_switch: int
    dst_switch: int
    components: Tuple[Tuple[int, ...], ...]


class PartitionDetected(RuntimeError):
    """Raised in ``strict`` mode when the fabric provably disconnected."""

    def __init__(self, event: PartitionEvent):
        self.event = event
        sizes = "+".join(str(len(c)) for c in event.components)
        super().__init__(
            f"fabric partitioned at t={event.time_ns:.0f}ns: no usable "
            f"path from switch {event.src_switch} to "
            f"{event.dst_switch} (components {sizes})")


class LinkFaultInjector:
    """Schedules bidirectional link failures and repairs on a fabric.

    Args:
        network: The fabric under test.  Its routing strategy must
            tolerate missing links (restricted adaptive routing on a
            FBFLY; the plain minimal adaptive routing cannot route
            around a failed direct link).
        decision_log: Optional :class:`~repro.obs.decisions.DecisionLog`
            receiving ``fault_down``/``fault_repair``/``partition``
            records (``changed=False``, so the transition audit is
            untouched).
        strict: When True, a provable partition raises
            :class:`PartitionDetected` instead of being recorded.
        max_defer_polls: Budget for waiting out a busy serializer
            before giving up on the hard power-off (see
            :class:`FaultRecord.power_off_timeout`).
        burst_gap_ns: Drops closer together than this belong to the
            same burst (availability reporting clusters correlated
            losses rather than counting packets).
    """

    def __init__(self, network: "Fabric", decision_log=None,
                 strict: bool = False, max_defer_polls: int = 1000,
                 burst_gap_ns: float = 10_000.0):
        self.network = network
        self.decision_log = decision_log
        self.strict = strict
        self.max_defer_polls = max_defer_polls
        self.burst_gap_ns = burst_gap_ns
        self.records: List[FaultRecord] = []
        self.partitions: List[PartitionEvent] = []
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.drop_bursts = 0
        self.faults_applied = 0
        self.repairs_applied = 0
        self._last_drop_ns: Optional[float] = None
        self._last_partition_sig: Optional[Tuple[Tuple[int, ...], ...]] = None
        # Graceful degradation: unroutable packets come to on_drop
        # instead of crashing the switch pipeline.
        network.drop_handler = self.on_drop

    # ------------------------------------------------------------------

    def fail_link(self, time_ns: float, a: int, b: int,
                  repair_after_ns: Optional[float] = None) -> FaultRecord:
        """Schedule both channels of link (a, b) to fail at ``time_ns``.

        Args:
            repair_after_ns: Optional downtime after which the link is
                restored (paying a normal reactivation).
        """
        record = FaultRecord(time_ns=time_ns, link=(a, b))
        self.records.append(record)
        self.network.sim.schedule_at(time_ns, self._fail, a, b, record)
        if repair_after_ns is not None:
            repair_time = time_ns + repair_after_ns
            record.repaired_ns = repair_time
            self.network.sim.schedule_at(repair_time, self._repair, a, b)
        return record

    # ------------------------------------------------------------------

    def _fail(self, a: int, b: int, record: FaultRecord) -> None:
        old_rate = None
        forward = self.network.switch_channel(a, b)
        if not forward.is_off:
            old_rate = forward.rate_gbps
        for src, dst in ((a, b), (b, a)):
            channel = self.network.switch_channel(src, dst)
            record.stranded_packets += self._hard_down(channel, src, record)
        self.faults_applied += 1
        self._log_fault("fault_down", a, b, old_rate=old_rate,
                        new_rate=None)

    def _hard_down(self, channel: Channel, owner_switch: int,
                   record: FaultRecord) -> int:
        """Force a channel off, re-injecting its queued packets."""
        if channel.is_off:
            return 0
        stranded = list(channel._queue)
        channel._queue.clear()
        channel._queue_bytes = 0
        # An in-flight packet is considered delivered (its last bit may
        # already be on the wire); only queued packets are re-routed.
        if not channel.drain():
            # Serializer busy: power down the moment it finishes.
            self._defer_power_off(channel, record)
        switch = self.network.switches[owner_switch]
        for packet in stranded:
            # Retransmit from the sender's buffer: route afresh.
            self.network.sim.schedule(
                switch.router_latency_ns, self._reroute, switch, packet)
        return len(stranded)

    def _defer_power_off(self, channel: Channel, record: FaultRecord,
                         poll_ns: float = 100.0) -> None:
        budget = self.max_defer_polls

        def attempt():
            nonlocal budget
            if not channel.draining or channel.finish_drain():
                return  # powered off now or before, or repaired
            budget -= 1
            if budget <= 0:
                # Give up: the channel stays draining (unusable) until
                # repair, and the record says why.
                record.power_off_timeout = True
                return
            self.network.sim.schedule(poll_ns, attempt, daemon=True)

        self.network.sim.schedule(poll_ns, attempt, daemon=True)

    def _reroute(self, switch, packet) -> None:
        try:
            candidates = switch._candidates(packet)
        except RuntimeError:
            # Routing itself proves there is no powered path; treat it
            # the same as an empty candidate list.
            candidates = []
        live = [c for c in candidates if c.usable]
        if not live:
            # The stranded packet's credits were already released when
            # it first left the input stage, so this is pure loss
            # accounting — no flow-control state to unwind.
            self.network.stats.record_drop(packet)
            probe = self.network.probe
            if probe is not None:
                probe.on_packet_dropped()
            self.on_drop(packet, switch, "stranded")
            return
        chosen = min(live, key=lambda c: c.queue_bytes)
        chosen.enqueue(packet, force=True)

    def _repair(self, a: int, b: int) -> None:
        new_rate = None
        for src, dst in ((a, b), (b, a)):
            channel = self.network.switch_channel(src, dst)
            channel.wake(reactivation_ns=1000.0)
            new_rate = channel.rate_gbps
        self.repairs_applied += 1
        self._log_fault("fault_repair", a, b, old_rate=None,
                        new_rate=new_rate)

    # ------------------------------------------------------------------
    # Drop accounting and partition detection
    # ------------------------------------------------------------------

    def on_drop(self, packet, switch, cause: str) -> None:
        """Fabric drop handler: account the loss, detect partitions.

        Called by the switch pipeline (unroutable / escape-dead-end
        packets, after it released credits and recorded network-level
        stats) and by :meth:`_reroute` for stranded packets.
        """
        now = self.network.sim.now
        self.dropped_packets += 1
        self.dropped_bytes += packet.size_bytes
        if (self._last_drop_ns is None
                or now - self._last_drop_ns > self.burst_gap_ns):
            self.drop_bursts += 1
        self._last_drop_ns = now

        dst_switch = self.network.topology.host_switch(packet.dst)
        if dst_switch in reachable_switches(self.network, switch.id):
            # A local routing dead-end, not a partition: restricted
            # routing only offers direct/adjacent steps, so a connected
            # fabric can still strand individual packets.
            self._last_partition_sig = None
            return
        components = tuple(switch_components(self.network))
        event = PartitionEvent(time_ns=now, src_switch=switch.id,
                               dst_switch=dst_switch,
                               components=components)
        if components != self._last_partition_sig:
            self._last_partition_sig = components
            self.partitions.append(event)
            self._log_partition(event)
        if self.strict:
            raise PartitionDetected(event)

    # ------------------------------------------------------------------
    # Decision-log plumbing
    # ------------------------------------------------------------------

    def _log_fault(self, reason: str, a: int, b: int,
                   old_rate: Optional[float],
                   new_rate: Optional[float]) -> None:
        if self.decision_log is None:
            return
        forward = self.network.switch_channel(a, b)
        reverse = self.network.switch_channel(b, a)
        self.decision_log.record(
            time_ns=self.network.sim.now, controller="faults",
            group=f"link({a},{b})",
            channels=(forward.name, reverse.name),
            old_rate=old_rate, new_rate=new_rate, reason=reason,
            changed=False)

    def _log_partition(self, event: PartitionEvent) -> None:
        if self.decision_log is None:
            return
        from repro.obs.decisions import PARTITION
        self.decision_log.record(
            time_ns=event.time_ns, controller="faults", group="fabric",
            channels=(), old_rate=None, new_rate=None, reason=PARTITION,
            changed=False)

    # ------------------------------------------------------------------

    @property
    def active_faults(self) -> int:
        """Links currently down."""
        count = 0
        for record in self.records:
            a, b = record.link
            if self.network.switch_channel(a, b).is_off:
                count += 1
        return count

    def digest(self) -> Dict[str, object]:
        """Deterministic, JSON-safe campaign summary.

        Combines injector-side accounting (faults, strands, bursts,
        partitions) with the fabric's drop counters; everything here is
        a pure function of the seeded event stream, so it is safe to
        cache and pin in goldens.
        """
        stats = self.network.stats
        return {
            "faults_injected": len(self.records),
            "faults_applied": self.faults_applied,
            "repairs_applied": self.repairs_applied,
            "stranded_packets": sum(r.stranded_packets
                                    for r in self.records),
            "power_off_timeouts": sum(1 for r in self.records
                                      if r.power_off_timeout),
            "dropped_packets": stats.packets_dropped,
            "dropped_bytes": stats.bytes_dropped,
            "dropped_messages": stats.messages_dropped,
            "drop_bursts": self.drop_bursts,
            "partitions": len(self.partitions),
            "partition_times_ns": [e.time_ns for e in self.partitions],
        }

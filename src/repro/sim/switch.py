"""Input- and output-buffered switches.

The paper's switches (Section 4.1) are "both input and output buffered"
with credit-based cut-through flow control and adaptive routing "on each
hop based solely on the output queue depth".  Our switch:

- holds arriving packets in a per-input buffer whose size is mirrored by
  the upstream channel's credit counter (backpressure is therefore
  loss-less and propagates upstream when outputs congest),
- routes each packet after a fixed router latency, choosing the
  least-occupied output queue among the minimal-route candidates the
  routing strategy offers,
- blocks the packet at the input when every candidate output is full and
  retries as soon as any candidate frees space, and
- carries an *escape valve*: a packet blocked longer than a timeout is
  force-enqueued onto the emptiest candidate.  This emulates the escape
  virtual channel a flit-level router would use for deadlock freedom; the
  number of escapes is recorded and is zero in all calibrated runs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.sim.channel import Channel, ChannelState
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FbflyNetwork

#: A routing strategy maps (switch, packet) to candidate output channels.
RoutingStrategy = Callable[["Switch", Packet], List[Channel]]

_OFF = ChannelState.OFF


class _BlockedPacket:
    """A packet waiting at the input stage for output-queue space."""

    __slots__ = ("packet", "in_channel", "candidates", "blocked_at", "escape_event")

    def __init__(self, packet: Packet, in_channel: Channel,
                 candidates: List[Channel], blocked_at: float):
        self.packet = packet
        self.in_channel = in_channel
        self.candidates = candidates
        self.blocked_at = blocked_at
        self.escape_event = None


class Switch:
    """One switch chip.

    Args:
        sim: Event engine.
        switch_id: Index within the topology.
        network: Owning network (routing strategies consult it).
        routing: Candidate-producing routing strategy.
        router_latency_ns: Pipeline latency from arrival to route decision.
        escape_timeout_ns: Blocked-packet escape deadline; ``None``
            disables the valve.
        rng: Source of tie-break randomness.
    """

    def __init__(
        self,
        sim: Simulator,
        switch_id: int,
        network: "FbflyNetwork",
        routing: RoutingStrategy,
        router_latency_ns: float = 100.0,
        escape_timeout_ns: Optional[float] = 1_000_000.0,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.id = switch_id
        self.network = network
        self.routing = routing
        self.router_latency_ns = router_latency_ns
        self.escape_timeout_ns = escape_timeout_ns
        self.rng = rng or random.Random(switch_id)
        #: Outgoing channels to peer switches, keyed by peer switch id.
        self.switch_out: Dict[int, Channel] = {}
        #: Outgoing channels to locally attached hosts, keyed by host id.
        self.host_out: Dict[int, Channel] = {}
        self._blocked: List[_BlockedPacket] = []
        self.packets_routed = 0

    # ------------------------------------------------------------------
    # Wiring (done by the network builder)
    # ------------------------------------------------------------------

    def attach_switch_channel(self, peer: int, channel: Channel) -> None:
        """Wire an outgoing channel toward a peer switch (builder use)."""
        channel.src = self
        self.switch_out[peer] = channel

    def attach_host_channel(self, host: int, channel: Channel) -> None:
        """Wire an outgoing channel toward an attached host (builder use)."""
        channel.src = self
        self.host_out[host] = channel

    def out_channels(self) -> List[Channel]:
        """All outgoing channels (switch-facing then host-facing)."""
        return list(self.switch_out.values()) + list(self.host_out.values())

    # ------------------------------------------------------------------
    # Node interface
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, channel: Channel) -> None:
        """A packet fully arrived over ``channel``; see Node."""
        packet.hops += 1
        sim = self.sim
        # The sum Simulator.schedule computes, minus its call frame.
        sim.schedule_at(sim._now + self.router_latency_ns, self._route,
                        packet, channel)

    def on_output_space(self, channel: Channel) -> None:
        """An outgoing channel freed queue space; see Node."""
        if not self._blocked:
            return
        self._retry_blocked(channel)

    # ------------------------------------------------------------------
    # Routing pipeline
    # ------------------------------------------------------------------

    def _route(self, packet: Packet, in_channel: Channel) -> None:
        # _candidates(), and _dispatch() when a candidate has room,
        # inlined: this runs once per packet-hop.
        size = packet.size_bytes
        local = self.host_out.get(packet.message.dst)
        if local is not None:
            candidates = [local]
            # _choose() over a single candidate.
            chosen = (local if local.state is not _OFF
                      and not local.draining
                      and local._queue_bytes + size
                      <= local.queue_capacity_bytes else None)
        else:
            try:
                candidates = self.routing(self, packet)
            except RuntimeError:
                # Routing found no powered path (restricted routing
                # raises).
                if self.network.drop_handler is None:
                    raise
                candidates = []
            chosen = self._choose(candidates, size)
        if chosen is not None:
            chosen.enqueue(packet)
            in_channel.release_credits(size)
            self.packets_routed += 1
            probe = self.network.probe
            if probe is not None:
                probe.on_packet_forwarded()
            return
        if not candidates:
            if self.network.drop_handler is None:
                raise RuntimeError(
                    f"no route from switch {self.id} for {packet!r} — "
                    "topology disconnected?"
                )
            self._drop(packet, in_channel, "unroutable")
            return
        probe = self.network.probe
        if probe is not None:
            probe.on_packet_blocked()
        entry = _BlockedPacket(packet, in_channel, candidates, self.sim.now)
        self._blocked.append(entry)
        if self.escape_timeout_ns is not None:
            entry.escape_event = self.sim.schedule(
                self.escape_timeout_ns, self._escape, entry)

    def _candidates(self, packet: Packet) -> List[Channel]:
        # host_out holds exactly the hosts attached to this switch.
        local = self.host_out.get(packet.dst)
        if local is not None:
            return [local]
        return self.routing(self, packet)

    def _choose(self, candidates: List[Channel],
                size_bytes: int) -> Optional[Channel]:
        """Least-occupied candidate with room, ties broken randomly.

        One pass; the tie list holds every least-occupied candidate with
        room, in candidate order, so ``rng.choice`` draws as it would
        from a filter-then-min selection.  Channel state is read
        directly, as ``Channel.can_enqueue`` reads it.
        """
        best = None
        best_depth = 0
        ties = None
        for channel in candidates:
            depth = channel._queue_bytes
            if (channel.state is _OFF or channel.draining
                    or depth + size_bytes > channel.queue_capacity_bytes):
                continue
            if best is None or depth < best_depth:
                best, best_depth, ties = channel, depth, None
            elif depth == best_depth:
                if ties is None:
                    ties = [best, channel]
                else:
                    ties.append(channel)
        return best if ties is None else self.rng.choice(ties)

    def _dispatch(self, packet: Packet, out: Channel,
                  in_channel: Channel, force: bool = False) -> None:
        out.enqueue(packet, force=force)
        in_channel.release_credits(packet.size_bytes)
        self.packets_routed += 1
        probe = self.network.probe
        if probe is not None:
            probe.on_packet_forwarded()

    def _drop(self, packet: Packet, in_channel: Channel, cause: str) -> None:
        """Gracefully drop an unroutable packet (drop handler installed).

        The input buffer's credits go back upstream — a drop must not
        leak flow-control state — before accounting and the handler run.
        """
        in_channel.release_credits(packet.size_bytes)
        self.network.stats.record_drop(packet)
        probe = self.network.probe
        if probe is not None:
            probe.on_packet_dropped()
        self.network.drop_handler(packet, self, cause)

    def _retry_blocked(self, freed: Channel) -> None:
        still_blocked: List[_BlockedPacket] = []
        for entry in self._blocked:
            if freed not in entry.candidates:
                still_blocked.append(entry)
                continue
            chosen = self._choose(entry.candidates, entry.packet.size_bytes)
            if chosen is None:
                still_blocked.append(entry)
                continue
            if entry.escape_event is not None:
                entry.escape_event.cancel()
            self._dispatch(entry.packet, chosen, entry.in_channel)
        self._blocked = still_blocked

    def _escape(self, entry: _BlockedPacket) -> None:
        """Force a long-blocked packet onto the emptiest candidate."""
        if entry not in self._blocked:
            return
        self._blocked.remove(entry)
        live = [c for c in entry.candidates if c.usable]
        if not live:
            # Candidates may have started draining since the packet
            # blocked; a draining (but still powered) channel beats a
            # stuck packet.
            live = [c for c in entry.candidates if not c.is_off]
        if not live:
            if self.network.drop_handler is None:
                raise RuntimeError(
                    f"switch {self.id}: all candidates powered off for "
                    f"{entry.packet!r}"
                )
            self._drop(entry.packet, entry.in_channel, "escape")
            return
        chosen = min(live, key=lambda c: c.queue_bytes)
        self._dispatch(entry.packet, chosen, entry.in_channel, force=True)
        self.network.stats.escapes += 1
        probe = self.network.probe
        if probe is not None:
            probe.on_packet_escaped()

    @property
    def blocked_packets(self) -> int:
        """Packets waiting at the input stage right now."""
        return len(self._blocked)

    def __repr__(self) -> str:
        return f"Switch(#{self.id}, {len(self.switch_out)} peers)"

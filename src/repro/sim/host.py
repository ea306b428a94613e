"""Host NICs: packetization, injection and reassembly.

A host consumes arriving packets at line rate (credits return after the
NIC hands the packet to memory, modelled as immediate) and injects
pending packets whenever its uplink channel has output-queue space, so
source queueing — where saturation manifests — is fully modelled.
"""

from __future__ import annotations

import collections
from typing import Deque, TYPE_CHECKING

from repro.sim.channel import Channel, ChannelState
from repro.sim.engine import Simulator
from repro.sim.packet import Message, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FbflyNetwork

_OFF = ChannelState.OFF


class Host:
    """One server endpoint (NIC).

    Args:
        sim: Event engine.
        host_id: Index within the topology.
        network: Owning network (for stats).
        mtu_bytes: Packet payload size messages are segmented into.
    """

    def __init__(self, sim: Simulator, host_id: int,
                 network: "FbflyNetwork", mtu_bytes: int = 2048):
        self.sim = sim
        self.id = host_id
        self.network = network
        self.mtu_bytes = mtu_bytes
        #: Uplink to the attached switch; set by the network builder.
        self.uplink: Channel = None
        self._pending: Deque[Packet] = collections.deque()
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def attach_uplink(self, channel: Channel) -> None:
        """Wire this host's uplink channel (builder use)."""
        channel.src = self
        self.uplink = channel

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def submit_message(self, message: Message) -> None:
        """Queue a message for injection (called at its create time)."""
        if message.src != self.id:
            raise ValueError(
                f"message {message!r} submitted at wrong host {self.id}")
        self._pending.extend(message.packetize(self.mtu_bytes))
        self.messages_sent += 1
        self.network.stats.record_injection(message.size_bytes)
        self._push()

    def _push(self) -> None:
        pending = self._pending
        uplink = self.uplink
        now = self.sim._now
        while pending:
            packet = pending[0]
            # Channel.can_enqueue, read directly: this runs whenever the
            # uplink frees space.
            if (uplink.state is _OFF or uplink.draining
                    or uplink._queue_bytes + packet.size_bytes
                    > uplink.queue_capacity_bytes):
                return
            pending.popleft()
            packet.inject_time = now
            self.bytes_sent += packet.size_bytes
            uplink.enqueue(packet)

    @property
    def pending_packets(self) -> int:
        """Packets queued in the NIC awaiting uplink space."""
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        """Bytes queued in the NIC awaiting uplink space."""
        return sum(p.size_bytes for p in self._pending)

    # ------------------------------------------------------------------
    # Node interface
    # ------------------------------------------------------------------

    def on_output_space(self, channel: Channel) -> None:
        """An outgoing channel freed queue space; see Node."""
        self._push()

    def receive(self, packet: Packet, channel: Channel) -> None:
        """A packet fully arrived over ``channel``; see Node."""
        if packet.dst != self.id:
            raise RuntimeError(
                f"misrouted packet {packet!r} arrived at host {self.id}")
        channel.release_credits(packet.size_bytes)
        packet.deliver_time = self.sim.now
        self.bytes_received += packet.size_bytes
        stats = self.network.stats
        stats.record_packet_delivery(packet.latency_ns, packet.size_bytes)
        probe = self.network.probe
        if probe is not None:
            probe.on_packet_delivered(packet.latency_ns)
        message = packet.message
        message.packets_delivered += 1
        if message.complete:
            message.deliver_time = self.sim.now
            self.messages_received += 1
            stats.record_message_delivery(message.latency_ns)
            if probe is not None:
                probe.on_message_delivered(message.latency_ns)

    def __repr__(self) -> str:
        return f"Host(#{self.id}, pending={len(self._pending)})"

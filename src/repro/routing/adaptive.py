"""Minimal adaptive routing for flattened butterflies.

A packet at switch ``s`` headed for destination switch ``d`` may correct
any dimension in which the two coordinates differ — the rook-move
property.  Every such hop is a candidate; the switch picks the candidate
with the least-occupied output queue (Section 4.1: "adaptively route on
each hop based solely on the output queue depth").

This local choice is also what the energy-proportional controller leans
on: when a candidate channel is slow or reactivating, its queue backs up
and new traffic drains toward the other dimensions automatically
(Section 3.3: "we do not explicitly remove them from the set of legal
output ports, but rather rely on the adaptive routing mechanism").
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.sim.channel import Channel
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FbflyNetwork
    from repro.sim.switch import Switch


class MinimalAdaptiveRouting:
    """Candidate outputs = one hop per unresolved dimension."""

    def __init__(self, network: "FbflyNetwork"):
        self.network = network
        self.topology = network.topology
        # (switch, destination switch) -> its minimal-hop channels in
        # dimension order.  The wiring never changes after the network is
        # built, so only channel objects are cached; their usability is
        # read live on every call.
        self._minimal: Dict[Tuple["Switch", int], Tuple[Channel, ...]] = {}

    def __call__(self, switch: "Switch", packet: Packet) -> List[Channel]:
        key = (switch, self.topology.host_switch(packet.dst))
        hops = self._minimal.get(key)
        if hops is None:
            hops = self._minimal[key] = self._minimal_hops(*key)
        return [channel for channel in hops if channel.usable]

    def _minimal_hops(self, switch: "Switch",
                      dst_switch: int) -> Tuple[Channel, ...]:
        """One channel per dimension in which ``switch`` and
        ``dst_switch`` differ, lowest dimension first."""
        topo = self.topology
        here = topo.coordinate(switch.id)
        target = topo.coordinate(dst_switch)
        return tuple(
            switch.switch_out[topo.peer_in_dimension(switch.id, dim,
                                                     target[dim])]
            for dim in range(topo.dimensions) if here[dim] != target[dim])

"""Adaptive routing over a partially powered-off FBFLY (Section 5.1).

Dynamic topologies power FBFLY express links down, degrading each fully
connected dimension to a ring (torus mode) or a line (mesh mode).  This
strategy keeps the rook-move structure — any unresolved dimension is a
legal direction — but routes *within* a dimension along powered links
only:

- if the direct (express) link to the target coordinate is powered, it
  is a candidate, exactly as in minimal adaptive routing;
- otherwise the packet steps to an adjacent coordinate along the ring,
  choosing the shortest direction whose path is fully powered (crossing
  the ring's wrap boundary requires the wrap link to be powered — in
  mesh mode it is not, and the packet walks the long way through the
  line).  In-dimension motion is monotone toward the target, so the
  degraded network is livelock-free.

The strategy discovers the powered set through each channel's own state
(:attr:`Channel.is_off`), so it composes with any power controller.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.sim.channel import Channel
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FbflyNetwork
    from repro.sim.switch import Switch


class RestrictedAdaptiveRouting:
    """Minimal adaptive routing that detours around powered-off links."""

    def __init__(self, network: "FbflyNetwork"):
        self.network = network
        self.topology = network.topology
        # Coordinates are fixed per switch; usability is read live.
        self._coords = [self.topology.coordinate(switch)
                        for switch in range(self.topology.num_switches)]

    def __call__(self, switch: "Switch", packet: Packet) -> List[Channel]:
        topo = self.topology
        dst_switch = topo.host_switch(packet.dst)
        here = self._coords[switch.id]
        target = self._coords[dst_switch]
        candidates: List[Channel] = []
        for dim in range(topo.dimensions):
            if here[dim] == target[dim]:
                continue
            channel = self._in_dimension(switch, dim, here[dim], target[dim])
            if channel is not None:
                candidates.append(channel)
        if not candidates:
            raise RuntimeError(
                f"switch {switch.id}: no powered path toward switch "
                f"{dst_switch} — dynamic topology disconnected the network"
            )
        return candidates

    def _in_dimension(self, switch: "Switch", dim: int,
                      here: int, target: int) -> Optional[Channel]:
        """Best powered hop within one dimension, or None if unreachable."""
        topo = self.topology
        direct = switch.switch_out[topo.peer_in_dimension(switch.id, dim, target)]
        if direct.usable:
            return direct
        k = topo.k
        up_distance = (target - here) % k      # stepping +1 each hop
        down_distance = (here - target) % k    # stepping -1 each hop
        # Moving up wraps the 0 boundary iff target < here, and vice versa.
        up_feasible = target > here or self._wrap_powered(switch, dim, +1)
        down_feasible = target < here or self._wrap_powered(switch, dim, -1)
        choices = []
        if up_feasible:
            choices.append((up_distance, +1))
        if down_feasible:
            choices.append((down_distance, -1))
        # Shortest powered direction first; fall back to the longer way
        # around if the preferred adjacent hop is itself dark (e.g. a
        # failed link rather than a topology mode).
        for _, step in sorted(choices):
            digit = (here + step) % k
            channel = switch.switch_out[
                topo.peer_in_dimension(switch.id, dim, digit)]
            if channel.usable:
                return channel
        return None

    def _wrap_powered(self, switch: "Switch", dim: int, step: int) -> bool:
        """Is the wrap channel of this ring powered, in travel direction?

        The ring is defined by the switch's coordinates in every other
        dimension.  Stepping up (+1) crosses the boundary on the
        ``k-1 -> 0`` channel; stepping down (-1) on ``0 -> k-1``.  The
        two unidirectional channels are checked separately because the
        dynamic-topology controller could in principle power them
        asymmetrically.
        """
        topo = self.topology
        high = topo.peer_in_dimension(switch.id, dim, topo.k - 1)
        low = topo.peer_in_dimension(switch.id, dim, 0)
        src, dst = (high, low) if step > 0 else (low, high)
        return self.network.switch_channel(src, dst).usable

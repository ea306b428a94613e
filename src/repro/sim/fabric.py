"""Topology-independent fabric machinery.

:class:`Fabric` owns everything about a simulated network that does not
depend on the topology family: host and switch instantiation, channel
construction and registry, workload injection, execution, and the
channel inventory the epoch controller tunes.  Topology-specific
subclasses (:class:`~repro.sim.network.FbflyNetwork`,
:class:`~repro.sim.clos_network.FatTreeNetwork`) contribute only the
wiring plan and a default routing strategy.

A subclass's ``topology`` object must expose ``num_hosts``,
``num_switches``, ``host_switch(host)`` and ``inter_switch_links()``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.host import Host
from repro.sim.packet import Message
from repro.sim.stats import NetworkStats
from repro.sim.switch import RoutingStrategy, Switch

#: Builds a routing strategy bound to a fabric.
RoutingFactory = Callable[["Fabric"], RoutingStrategy]


class Fabric:
    """Base class for simulated networks.

    Args:
        topology: Wiring plan (see module docstring for the contract).
        config: A :class:`~repro.sim.network.NetworkConfig`.
        routing_factory: Strategy builder bound to this fabric.
    """

    def __init__(self, topology, config, routing_factory: RoutingFactory):
        self.topology = topology
        self.config = config
        self.sim = Simulator()
        self.stats = NetworkStats(start_time=self.sim.now)
        self.rng = random.Random(config.seed)

        self.hosts: List[Host] = [
            Host(self.sim, h, self, config.mtu_bytes)
            for h in range(topology.num_hosts)
        ]
        routing = routing_factory(self)
        self.switches: List[Switch] = [
            Switch(
                self.sim, s, self, routing,
                router_latency_ns=config.router_latency_ns,
                escape_timeout_ns=config.escape_timeout_ns,
                rng=random.Random(self.rng.getrandbits(32)),
            )
            for s in range(topology.num_switches)
        ]

        self._switch_channels: Dict[Tuple[int, int], Channel] = {}
        self.host_up: List[Channel] = []
        self.host_down: List[Channel] = []
        #: Optional :class:`~repro.obs.instrument.FabricProbe`; hooks in
        #: switches and hosts record through it when set.
        self.probe = None
        #: Optional ``(packet, switch, cause) -> None`` drop handler.
        #: When set, a packet with no usable route is handed here (and
        #: dropped) instead of crashing the run; the fault injector
        #: installs its accounting hook.  ``None`` keeps the strict
        #: fail-fast behaviour.
        self.drop_handler = None
        self._build_channels()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_channel(self, name: str, dst, medium=None) -> Channel:
        cfg = self.config
        channel = Channel(
            self.sim, name, dst,
            ladder=cfg.ladder,
            rate_gbps=cfg.initial_rate_gbps,
            propagation_ns=cfg.propagation_ns,
            queue_capacity_bytes=cfg.queue_capacity_bytes,
            credit_bytes=cfg.credit_bytes,
            medium=medium,
        )
        self.stats.register_channel(channel.stats)
        return channel

    def _link_medium(self, link):
        """Physical medium of an inter-switch link; None = untagged.

        Subclasses override to express their packaging model (e.g. the
        FBFLY's electrical dimension 0).
        """
        return None

    def _host_link_medium(self):
        """Physical medium of host<->switch links; None = untagged."""
        return None

    def _build_channels(self) -> None:
        topo = self.topology
        for link in topo.inter_switch_links():
            a, b = link.src, link.dst
            medium = self._link_medium(link)
            fwd = self._new_channel(f"s{a}->s{b}", self.switches[b],
                                    medium=medium)
            rev = self._new_channel(f"s{b}->s{a}", self.switches[a],
                                    medium=medium)
            self.switches[a].attach_switch_channel(b, fwd)
            self.switches[b].attach_switch_channel(a, rev)
            self._switch_channels[(a, b)] = fwd
            self._switch_channels[(b, a)] = rev
        host_medium = self._host_link_medium()
        for host in self.hosts:
            sw = self.switches[topo.host_switch(host.id)]
            up = self._new_channel(f"h{host.id}->s{sw.id}", sw,
                                   medium=host_medium)
            down = self._new_channel(f"s{sw.id}->h{host.id}", host,
                                     medium=host_medium)
            host.attach_uplink(up)
            sw.attach_host_channel(host.id, down)
            self.host_up.append(up)
            self.host_down.append(down)

    # ------------------------------------------------------------------
    # Channel inventory
    # ------------------------------------------------------------------

    def switch_channel(self, src: int, dst: int) -> Channel:
        """The unidirectional channel from switch ``src`` to ``dst``."""
        return self._switch_channels[(src, dst)]

    def switch_channel_map(self) -> Dict[Tuple[int, int], Channel]:
        """The ``(src, dst) -> channel`` map of inter-switch channels.

        A shallow copy: reachability checks and spanning-set policies
        walk it without touching fabric internals.
        """
        return dict(self._switch_channels)

    @property
    def inter_switch_channels(self) -> List[Channel]:
        """Every switch-to-switch unidirectional channel."""
        return list(self._switch_channels.values())

    def all_channels(self) -> List[Channel]:
        """Every channel: inter-switch plus host up/down links."""
        return self.inter_switch_channels + self.host_up + self.host_down

    def tunable_channels(self) -> List[Channel]:
        """Channels the epoch controller may rate-scale."""
        channels = self.inter_switch_channels
        if self.config.host_links_tunable:
            channels = channels + self.host_up + self.host_down
        return channels

    def link_pairs(self) -> List[Tuple[Channel, Channel]]:
        """Bidirectional link pairs among the tunable channels.

        Used for the paper's baseline mechanism where "a bidirectional
        link-pair must be tuned to the same speed" (Figure 7a).
        """
        pairs = [
            (self._switch_channels[(a, b)], self._switch_channels[(b, a)])
            for (a, b) in self._switch_channels
            if a < b
        ]
        if self.config.host_links_tunable:
            pairs.extend(zip(self.host_up, self.host_down))
        return pairs

    # ------------------------------------------------------------------
    # Injection and execution
    # ------------------------------------------------------------------

    def submit(self, time_ns: float, src: int, dst: int,
               size_bytes: int) -> None:
        """Schedule one message injection."""
        self.sim.schedule_at(time_ns, self._inject, src, dst, size_bytes)

    def attach_workload(self, events: Iterable) -> None:
        """Drive the network from a time-sorted iterable of injection
        events (anything exposing ``time_ns``, ``src``, ``dst`` and
        ``size_bytes``).  Events are scheduled lazily, one ahead, so
        arbitrarily long workloads use constant memory."""
        self._advance_workload(iter(events))

    def _advance_workload(self, it: Iterator) -> None:
        try:
            event = next(it)
        except StopIteration:
            return
        self.sim.schedule_at(event.time_ns, self._fire_workload, event, it)

    def _fire_workload(self, event, it: Iterator) -> None:
        self._inject(event.src, event.dst, event.size_bytes)
        self._advance_workload(it)

    def _inject(self, src: int, dst: int, size_bytes: int) -> None:
        message = Message(src, dst, size_bytes, self.sim.now)
        self.hosts[src].submit_message(message)

    def run(self, until_ns: Optional[float] = None) -> NetworkStats:
        """Run the simulation and return finalized statistics."""
        self.sim.run(until_ns)
        self.stats.finalize(self.sim.now)
        if self.probe is not None:
            self.probe.finalize(self)
        return self.stats

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.topology!r}, "
                f"{len(self.all_channels())} channels)")

"""Routing strategies: minimal adaptive, dimension-order, restricted."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.adaptive import MinimalAdaptiveRouting
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.sim.channel import ChannelState
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.sim.packet import Message
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.mesh_torus import mesh_link_set, torus_link_set


def make_network(k=3, n=3, routing_factory=None, seed=5):
    topo = FlattenedButterfly(k=k, n=n)
    return FbflyNetwork(topo, NetworkConfig(seed=seed),
                        routing_factory=routing_factory)


def packet_for(net, src_host, dst_host):
    return Message(src_host, dst_host, 1000, 0.0).packetize(1000)[0]


class TestMinimalAdaptive:
    def test_candidate_per_differing_dimension(self):
        net = make_network()
        routing = MinimalAdaptiveRouting(net)
        topo = net.topology
        dst_switch = topo.switch_index((1, 2))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        candidates = routing(net.switches[0], packet_for(net, 0, dst_host))
        assert len(candidates) == 2   # both dimensions differ

    def test_single_candidate_when_one_dim_differs(self):
        net = make_network()
        routing = MinimalAdaptiveRouting(net)
        topo = net.topology
        dst_switch = topo.switch_index((2, 0))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        candidates = routing(net.switches[0], packet_for(net, 0, dst_host))
        assert len(candidates) == 1
        assert candidates[0] is net.switch_channel(0, dst_switch)

    def test_candidates_point_at_corrected_coordinates(self):
        net = make_network()
        routing = MinimalAdaptiveRouting(net)
        topo = net.topology
        dst_switch = topo.switch_index((2, 1))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        candidates = routing(net.switches[0], packet_for(net, 0, dst_host))
        targets = {ch.dst.id for ch in candidates}
        assert targets == {topo.switch_index((2, 0)),
                           topo.switch_index((0, 1))}

    def test_unusable_channels_excluded(self):
        net = make_network()
        routing = MinimalAdaptiveRouting(net)
        topo = net.topology
        dst_switch = topo.switch_index((1, 1))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        net.switch_channel(0, topo.switch_index((1, 0))).draining = True
        candidates = routing(net.switches[0], packet_for(net, 0, dst_host))
        assert len(candidates) == 1


class TestDimensionOrder:
    def test_always_single_candidate(self):
        net = make_network(routing_factory=DimensionOrderRouting)
        routing = DimensionOrderRouting(net)
        topo = net.topology
        dst_switch = topo.switch_index((2, 2))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        candidates = routing(net.switches[0], packet_for(net, 0, dst_host))
        assert len(candidates) == 1
        # Lowest dimension corrected first.
        assert candidates[0].dst.id == topo.switch_index((2, 0))

    def test_at_destination_switch_raises(self):
        net = make_network(routing_factory=DimensionOrderRouting)
        routing = DimensionOrderRouting(net)
        with pytest.raises(RuntimeError):
            routing(net.switches[0], packet_for(net, 3, 1))

    def test_end_to_end_delivery(self):
        net = make_network(routing_factory=DimensionOrderRouting)
        n = net.topology.num_hosts
        for i in range(25):
            net.submit(i * 20.0, src=i % n, dst=(i + 11) % n, size_bytes=2000)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)


class TestRestrictedRouting:
    @staticmethod
    def degrade(net, keep_links):
        """Power off every inter-switch channel not in ``keep_links``."""
        for (a, b), ch in net._switch_channels.items():
            key = (min(a, b), max(a, b))
            if key not in keep_links:
                ch.power_off()

    def test_full_fbfly_matches_minimal_adaptive(self):
        net = make_network(routing_factory=RestrictedAdaptiveRouting)
        restricted = RestrictedAdaptiveRouting(net)
        minimal = MinimalAdaptiveRouting(net)
        topo = net.topology
        for dst_switch in range(1, topo.num_switches):
            dst_host = list(topo.hosts_of_switch(dst_switch))[0]
            pkt = packet_for(net, 0, dst_host)
            assert set(restricted(net.switches[0], pkt)) == \
                set(minimal(net.switches[0], pkt))

    def test_mesh_delivery(self):
        net = make_network(k=4, routing_factory=RestrictedAdaptiveRouting)
        self.degrade(net, mesh_link_set(net.topology))
        n = net.topology.num_hosts
        for i in range(30):
            net.submit(i * 50.0, src=i % n, dst=(i + 17) % n, size_bytes=1500)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_torus_delivery(self):
        net = make_network(k=4, routing_factory=RestrictedAdaptiveRouting)
        self.degrade(net, torus_link_set(net.topology))
        n = net.topology.num_hosts
        for i in range(30):
            net.submit(i * 50.0, src=i % n, dst=(i + 29) % n, size_bytes=1500)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_mesh_walks_the_line_not_the_wrap(self):
        net = make_network(k=4, routing_factory=RestrictedAdaptiveRouting)
        self.degrade(net, mesh_link_set(net.topology))
        routing = RestrictedAdaptiveRouting(net)
        topo = net.topology
        # From digit 0 to digit 3 in dim 0: without the wrap, the first
        # hop must be to digit 1.
        src_switch = topo.switch_index((0, 0))
        dst_switch = topo.switch_index((3, 0))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        candidates = routing(net.switches[src_switch],
                             packet_for(net, 0, dst_host))
        assert len(candidates) == 1
        assert candidates[0].dst.id == topo.switch_index((1, 0))

    def test_torus_takes_shortest_ring_direction(self):
        net = make_network(k=4, routing_factory=RestrictedAdaptiveRouting)
        self.degrade(net, torus_link_set(net.topology))
        routing = RestrictedAdaptiveRouting(net)
        topo = net.topology
        # From digit 0 to digit 3: with the wrap powered, one hop down
        # (0 -> 3 directly via the wrap link).
        src_switch = topo.switch_index((0, 0))
        dst_switch = topo.switch_index((3, 0))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        candidates = routing(net.switches[src_switch],
                             packet_for(net, 0, dst_host))
        assert candidates[0].dst.id == dst_switch

    def test_hop_monotonicity_in_mesh(self):
        # Packets in a mesh never increase their in-dimension distance.
        net = make_network(k=4, routing_factory=RestrictedAdaptiveRouting)
        self.degrade(net, mesh_link_set(net.topology))
        routing = RestrictedAdaptiveRouting(net)
        topo = net.topology
        dst_switch = topo.switch_index((3, 3))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        for src_switch in range(topo.num_switches):
            if src_switch == dst_switch:
                continue
            pkt = packet_for(net, 0, dst_host)
            for ch in routing(net.switches[src_switch], pkt):
                here = topo.coordinate(src_switch)
                there = topo.coordinate(ch.dst.id)
                target = topo.coordinate(dst_switch)
                for d in range(topo.dimensions):
                    if here[d] != there[d]:
                        assert abs(target[d] - there[d]) < \
                            abs(target[d] - here[d])


def packet_to(net, dst_host):
    """A packet for ``dst_host`` (routing ignores the source)."""
    return packet_for(net, (dst_host + 1) % net.topology.num_hosts, dst_host)


def reference_minimal(net, switch, dst_host):
    """Minimal adaptive candidates derived from coordinates on every
    call: the form the cached routing must reproduce."""
    topo = net.topology
    here = topo.coordinate(switch.id)
    target = topo.coordinate(topo.host_switch(dst_host))
    candidates = []
    for dim in range(topo.dimensions):
        if here[dim] != target[dim]:
            peer = topo.peer_in_dimension(switch.id, dim, target[dim])
            channel = switch.switch_out[peer]
            if channel.usable:
                candidates.append(channel)
    return candidates


@st.composite
def routing_case(draw):
    """A small FBFLY, routing queries, and channels to take out."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    hosts = k ** n
    switches = k ** (n - 1)
    queries = draw(st.lists(
        st.tuples(st.integers(0, switches - 1), st.integers(0, hosts - 1)),
        min_size=1, max_size=30))
    links = switches * (k - 1) * (n - 1)
    disabled = draw(st.lists(
        st.tuples(st.integers(0, max(links - 1, 0)),
                  st.sampled_from(["draining", "off"])),
        max_size=links))
    return k, n, queries, disabled if links else []


class TestMinimalHopCache:
    """The routing caches channel objects per (switch, destination
    switch); usability is read live, so faults, draining and topology
    control act on the very next call."""

    @given(routing_case())
    @settings(max_examples=60, deadline=None)
    def test_cached_routing_matches_coordinate_derivation(self, case):
        k, n, queries, disabled = case
        net = make_network(k=k, n=n)
        routing = MinimalAdaptiveRouting(net)

        def check():
            for switch_id, dst_host in queries:
                switch = net.switches[switch_id]
                packet = packet_to(net, dst_host)
                got = routing(switch, packet)
                want = reference_minimal(net, switch, dst_host)
                assert [id(ch) for ch in got] == [id(ch) for ch in want]

        channels = net.inter_switch_channels

        def disable():
            for index, how in disabled:
                if how == "draining":
                    channels[index].draining = True
                elif not channels[index].is_off:
                    channels[index].power_off()

        def restore():
            for index, _ in disabled:
                channels[index].draining = False
                channels[index].state = ChannelState.ACTIVE

        # The cache fills while channels are out, so a cached usability
        # would show once they come back, and again when they go.
        disable()
        check()
        restore()
        check()
        disable()
        check()

    def test_usability_is_never_cached(self):
        net = make_network(k=4, n=3)
        routing = MinimalAdaptiveRouting(net)
        topo = net.topology
        dst_host = topo.hosts_of_switch(topo.switch_index((3, 2)))[0]
        packet = packet_to(net, dst_host)
        switch = net.switches[0]
        first = net.switch_channel(0, topo.switch_index((3, 0)))
        second = net.switch_channel(0, topo.switch_index((0, 2)))
        first.draining = True
        assert routing(switch, packet) == [second]
        first.draining = False
        assert routing(switch, packet) == [first, second]
        second.power_off()
        assert routing(switch, packet) == [first]
        second.state = ChannelState.ACTIVE
        assert routing(switch, packet) == [first, second]

    def test_cache_is_bounded_by_switch_pairs(self):
        net = make_network(k=4, n=3)
        routing = MinimalAdaptiveRouting(net)
        for switch in net.switches:
            for dst_host in range(net.topology.num_hosts):
                routing(switch, packet_to(net, dst_host))
        assert len(routing._minimal) == 16 * 16 == 256

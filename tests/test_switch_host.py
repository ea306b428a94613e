"""Switch routing pipeline and host NIC behaviour."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.channel import Channel, ChannelState
from repro.sim.engine import Simulator
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.sim.packet import Message
from repro.sim.switch import Switch
from repro.topology.flattened_butterfly import FlattenedButterfly


@pytest.fixture
def congested_network():
    """Tiny network with very small buffers, to exercise blocking."""
    topo = FlattenedButterfly(k=2, n=2)   # 4 hosts, 2 switches
    config = NetworkConfig(queue_capacity_bytes=4096, credit_bytes=4096,
                           seed=3)
    return FbflyNetwork(topo, config)


class TestHostNic:
    def test_submit_wrong_host_rejected(self, tiny_network):
        msg = Message(src=1, dst=2, size_bytes=100, create_time=0.0)
        with pytest.raises(ValueError):
            tiny_network.hosts[0].submit_message(msg)

    def test_pending_packets_drain(self, tiny_network):
        host = tiny_network.hosts[0]
        msg = Message(0, 5, 200_000, 0.0)   # 100 packets, exceeds queue
        host.submit_message(msg)
        assert host.pending_packets > 0
        tiny_network.run()
        assert host.pending_packets == 0
        assert tiny_network.hosts[5].messages_received == 1

    @pytest.mark.parametrize("state", ["draining", "off"])
    def test_unusable_uplink_holds_packets_in_the_nic(self, tiny_network,
                                                      state):
        host = tiny_network.hosts[0]
        if state == "draining":
            host.uplink.draining = True
        else:
            host.uplink.power_off()
        host.submit_message(Message(0, 5, 3000, 0.0))
        assert host.pending_packets == 2
        if state == "off":
            host.uplink.power_on(reactivation_ns=0.0)
        host.uplink.draining = False
        host.on_output_space(host.uplink)
        assert host.pending_packets == 0
        tiny_network.run()
        assert tiny_network.hosts[5].messages_received == 1

    def test_misrouted_packet_detected(self, tiny_network):
        host = tiny_network.hosts[0]
        stray = Message(2, 3, 100, 0.0).packetize(100)[0]
        with pytest.raises(RuntimeError):
            host.receive(stray, tiny_network.host_down[0])

    def test_send_and_receive_counters(self, tiny_network):
        tiny_network.submit(0.0, 0, 4, 3000)
        tiny_network.run()
        assert tiny_network.hosts[0].messages_sent == 1
        assert tiny_network.hosts[0].bytes_sent == 3000
        assert tiny_network.hosts[4].bytes_received == 3000


class TestSwitchRouting:
    def test_local_delivery_uses_host_channel(self, tiny_network):
        # Host 0 and 1 are on switch 0.
        tiny_network.submit(0.0, 0, 1, 500)
        tiny_network.run()
        down = tiny_network.host_down[1]
        assert down.stats.packets_sent == 1

    @pytest.mark.parametrize("obstacle", ["draining", "full"])
    def test_unusable_local_downlink_blocks_the_packet(self, tiny_network,
                                                       obstacle):
        # Host 0 and 1 are on switch 0: the packet's only candidate is
        # the host-1 downlink.
        net = tiny_network
        switch, down = net.switches[0], net.host_down[1]
        if obstacle == "draining":
            down.draining = True
        else:
            filler = Message(0, 1, down.queue_capacity_bytes, 0.0)
            down._queue.extend(filler.packetize(down.queue_capacity_bytes))
            down._queue_bytes = down.queue_capacity_bytes
        net.submit(0.0, 0, 1, 500)
        net.sim.run(until_ns=10_000.0)
        assert switch.blocked_packets == 1
        assert switch.packets_routed == 0
        down.draining = False
        down._queue.clear()
        down._queue_bytes = 0
        switch.on_output_space(down)
        assert switch.blocked_packets == 0
        net.run()
        assert net.hosts[1].messages_received == 1

    def test_packets_counted_per_switch(self, tiny_network):
        tiny_network.submit(0.0, 0, 7, 1000)
        tiny_network.run()
        total_routed = sum(s.packets_routed for s in tiny_network.switches)
        assert total_routed >= 2   # at least ingress + egress switch

    def test_congestion_blocks_then_resolves(self, congested_network):
        # Flood one destination; tiny buffers force blocking, but
        # everything must still be delivered eventually.
        net = congested_network
        for i in range(40):
            net.submit(i * 10.0, src=0, dst=3, size_bytes=2048)
        stats = net.run()
        assert stats.messages_delivered == 40
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_no_blocked_packets_after_drain(self, congested_network):
        net = congested_network
        for i in range(20):
            net.submit(i * 5.0, src=i % 4, dst=(i + 1) % 4, size_bytes=4096)
        net.run()
        assert all(s.blocked_packets == 0 for s in net.switches)

    def test_adaptive_choice_prefers_emptier_queue(self, small_network):
        # Pre-load one candidate output queue and check new traffic takes
        # the other dimension.
        net = small_network
        topo = net.topology
        # Host 0 on switch 0 -> host on switch that differs in both dims.
        dst_switch = topo.switch_index((1, 1))
        dst_host = list(topo.hosts_of_switch(dst_switch))[0]
        # Candidates from switch 0: via (1,0) and via (0,1).
        via_dim0 = net.switch_channel(0, topo.switch_index((1, 0)))
        via_dim1 = net.switch_channel(0, topo.switch_index((0, 1)))
        filler = Message(0, dst_host, 30_000, 0.0)
        for p in filler.packetize(2048):
            via_dim0.enqueue(p)   # preload dimension 0
        before = via_dim1.stats.packets_sent
        net.submit(0.0, 0, dst_host, 2048)
        net.run()
        # The submitted packet should have chosen the empty dimension-1
        # channel (queue depth 0 vs a preloaded queue).
        assert via_dim1.stats.packets_sent > before


class TestEscapeValve:
    def test_escape_fires_for_stuck_packet(self):
        topo = FlattenedButterfly(k=2, n=2)
        config = NetworkConfig(queue_capacity_bytes=2048, credit_bytes=2048,
                               escape_timeout_ns=1_000.0, seed=1)
        net = FbflyNetwork(topo, config)
        # Stall the inter-switch channel by reactivating it for a long
        # time while traffic piles up behind it.
        ch = net.switch_channel(0, 1)
        ch.set_rate(2.5, reactivation_ns=500_000.0)
        for i in range(10):
            net.submit(i * 10.0, src=0, dst=2, size_bytes=2048)
        stats = net.run()
        assert stats.messages_delivered == 10
        assert stats.escapes > 0

    def test_escape_disabled(self):
        topo = FlattenedButterfly(k=2, n=2)
        config = NetworkConfig(queue_capacity_bytes=2048, credit_bytes=2048,
                               escape_timeout_ns=None, seed=1)
        net = FbflyNetwork(topo, config)
        for i in range(10):
            net.submit(i * 10.0, src=0, dst=2, size_bytes=1024)
        stats = net.run()
        assert stats.escapes == 0
        assert stats.messages_delivered == 10


def filtered_choice(candidates, size_bytes, rng):
    """The least-occupied-candidate rule as filter -> min -> filter."""
    available = [c for c in candidates if c.can_enqueue(size_bytes)]
    if not available:
        return None
    best_depth = min(c.queue_bytes for c in available)
    best = [c for c in available if c.queue_bytes == best_depth]
    return best[0] if len(best) == 1 else rng.choice(best)


@st.composite
def choice_case(draw):
    """Candidate channels with random depth, capacity and usability."""
    channels = draw(st.lists(
        st.tuples(
            st.integers(0, 4).map(lambda units: units * 1024),   # depth
            st.sampled_from([2048, 4096, 8192]),                 # capacity
            st.sampled_from(["active", "draining", "off"]),
        ),
        max_size=6))
    size_bytes = draw(st.sampled_from([512, 1024, 2048]))
    seed = draw(st.integers(0, 2**32 - 1))
    return channels, size_bytes, seed


class TestChoose:
    @given(choice_case())
    @settings(max_examples=200, deadline=None)
    def test_single_pass_matches_filter_min_filter(self, case):
        specs, size_bytes, seed = case
        sim = Simulator()
        candidates = []
        for i, (depth, capacity, usability) in enumerate(specs):
            channel = Channel(sim, f"c{i}", dst=None,
                              queue_capacity_bytes=capacity)
            channel._queue_bytes = depth
            channel.draining = usability == "draining"
            if usability == "off":
                channel.state = ChannelState.OFF
            candidates.append(channel)
        switch = Switch(sim, 0, network=None, routing=None,
                        rng=random.Random(seed))
        reference_rng = random.Random(seed)

        for _ in range(3):   # repeated draws keep the streams in step
            chosen = switch._choose(candidates, size_bytes)
            assert chosen is filtered_choice(candidates, size_bytes,
                                             reference_rng)
            assert switch.rng.getstate() == reference_rng.getstate()

"""Network construction and end-to-end packet delivery."""

import pytest

from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.workloads.base import TraceEvent


class TestConstruction:
    def test_channel_inventory(self, tiny_network):
        topo = tiny_network.topology
        # Two unidirectional channels per inter-switch link + host up/down.
        expected = (2 * topo.num_inter_switch_links + 2 * topo.num_hosts)
        assert len(tiny_network.all_channels()) == expected

    def test_switch_channel_lookup_both_directions(self, tiny_network):
        link = next(tiny_network.topology.inter_switch_links())
        fwd = tiny_network.switch_channel(link.src, link.dst)
        rev = tiny_network.switch_channel(link.dst, link.src)
        assert fwd is not rev
        assert fwd.name != rev.name

    def test_link_pairs_cover_all_tunable_channels(self, tiny_network):
        paired = set()
        for fwd, rev in tiny_network.link_pairs():
            paired.add(fwd.name)
            paired.add(rev.name)
        tunable = {ch.name for ch in tiny_network.tunable_channels()}
        assert paired == tunable

    def test_host_links_excluded_when_not_tunable(self, tiny_topology):
        net = FbflyNetwork(
            tiny_topology, NetworkConfig(host_links_tunable=False))
        tunable = net.tunable_channels()
        assert len(tunable) == 2 * tiny_topology.num_inter_switch_links

    def test_initial_rate_override(self, tiny_topology):
        net = FbflyNetwork(tiny_topology,
                           NetworkConfig(initial_rate_gbps=2.5))
        assert all(ch.rate_gbps == 2.5 for ch in net.all_channels())

    def test_channels_start_at_max_rate_by_default(self, tiny_network):
        assert all(ch.rate_gbps == 40.0
                   for ch in tiny_network.all_channels())


class TestDelivery:
    def test_single_message_same_switch(self, tiny_network):
        # Hosts 0 and 1 share switch 0 (c=2).
        tiny_network.submit(0.0, src=0, dst=1, size_bytes=1000)
        stats = tiny_network.run()
        assert stats.messages_delivered == 1
        assert tiny_network.hosts[1].bytes_received == 1000

    def test_single_message_across_switches(self, tiny_network):
        dst = tiny_network.topology.num_hosts - 1
        tiny_network.submit(0.0, src=0, dst=dst, size_bytes=5000)
        stats = tiny_network.run()
        assert stats.messages_delivered == 1
        assert tiny_network.hosts[dst].bytes_received == 5000

    def test_multi_packet_message_reassembled(self, tiny_network):
        tiny_network.submit(0.0, src=0, dst=7, size_bytes=10_000)
        stats = tiny_network.run()
        assert stats.messages_delivered == 1
        # 10 kB at 2 kB MTU = 5 packets.
        assert tiny_network.hosts[7].messages_received == 1

    def test_hop_count_respects_minimal_routing(self, small_network):
        # 3-ary 3-flat: max 2 inter-switch hops + host delivery hop.
        topo = small_network.topology
        src, dst = 0, topo.num_hosts - 1
        small_network.submit(0.0, src, dst, 1000)
        small_network.run()
        assert small_network.hosts[dst].messages_received == 1

    def test_all_pairs_delivery(self, tiny_network):
        # Every host sends to every other host.
        n = tiny_network.topology.num_hosts
        t = 0.0
        count = 0
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    tiny_network.submit(t, src, dst, 256)
                    t += 10.0
                    count += 1
        stats = tiny_network.run()
        assert stats.messages_delivered == count
        assert stats.bytes_delivered == count * 256

    def test_byte_conservation_after_drain(self, small_network):
        for i in range(20):
            small_network.submit(
                i * 100.0, src=i % 27, dst=(i + 5) % 27, size_bytes=3000)
        stats = small_network.run()
        assert stats.bytes_delivered == stats.bytes_injected
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_latency_positive_and_reasonable(self, tiny_network):
        tiny_network.submit(0.0, 0, 7, 2048)
        stats = tiny_network.run()
        latency = stats.mean_message_latency_ns()
        # Must cover at least serialization once (2048 B / 5 B/ns).
        assert latency >= 2048 / 5.0
        # And not be absurd for an idle network.
        assert latency < 10_000.0


class TestWorkloadAttachment:
    def test_attach_workload_injects_all_events(self, tiny_network):
        events = [
            TraceEvent(10.0, 0, 5, 1000),
            TraceEvent(20.0, 1, 6, 2000),
            TraceEvent(30.0, 2, 7, 500),
        ]
        tiny_network.attach_workload(iter(events))
        stats = tiny_network.run()
        assert stats.messages_injected == 3
        assert stats.messages_delivered == 3

    def test_empty_workload(self, tiny_network):
        tiny_network.attach_workload(iter(()))
        stats = tiny_network.run()
        assert stats.messages_injected == 0

    def test_run_until_freezes_clock(self, tiny_network):
        tiny_network.submit(0.0, 0, 7, 1000)
        stats = tiny_network.run(until_ns=50_000.0)
        assert stats.duration_ns == 50_000.0


class TestDeterminism:
    def test_same_seed_same_result(self, small_topology):
        def run_once():
            net = FbflyNetwork(small_topology, NetworkConfig(seed=42))
            for i in range(30):
                net.submit(i * 50.0, src=i % 27, dst=(i * 7 + 1) % 27,
                           size_bytes=4000)
            return net.run().mean_message_latency_ns()

        assert run_once() == run_once()

"""Generic fabric machinery shared by FBFLY and fat-tree networks."""

import pytest

from repro.sim.clos_network import FatTreeNetwork
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.fat_tree import FatTree
from repro.topology.flattened_butterfly import FlattenedButterfly


class TestSharedBehaviour:
    @pytest.fixture(params=["fbfly", "fat-tree"])
    def fabric(self, request):
        if request.param == "fbfly":
            return FbflyNetwork(FlattenedButterfly(k=2, n=3),
                                NetworkConfig(seed=51))
        return FatTreeNetwork(FatTree(radix=4), NetworkConfig(seed=51))

    def test_channel_registry_symmetry(self, fabric):
        for (a, b) in list(fabric._switch_channels):
            assert (b, a) in fabric._switch_channels

    def test_all_channels_partition(self, fabric):
        total = len(fabric.all_channels())
        assert total == (len(fabric.inter_switch_channels)
                         + 2 * fabric.topology.num_hosts)

    def test_repr_names_the_class(self, fabric):
        assert type(fabric).__name__ in repr(fabric)

    def test_submit_and_drain(self, fabric):
        n = fabric.topology.num_hosts
        fabric.submit(0.0, 0, n - 1, 4096)
        stats = fabric.run()
        assert stats.messages_delivered == 1

    def test_workload_events_use_duck_typing(self, fabric):
        class CustomEvent:
            def __init__(self, time_ns, src, dst, size_bytes):
                self.time_ns = time_ns
                self.src = src
                self.dst = dst
                self.size_bytes = size_bytes

        fabric.attach_workload(iter([CustomEvent(5.0, 0, 1, 128)]))
        stats = fabric.run()
        assert stats.messages_delivered == 1

    def test_every_switch_channel_has_src_set(self, fabric):
        for ch in fabric.inter_switch_channels:
            assert ch.src is not None

    def test_stats_channel_count_matches(self, fabric):
        assert len(fabric.stats.channels) == len(fabric.all_channels())


class TestTraceReplayEquivalence:
    """A saved-and-reloaded trace must reproduce the original run."""

    def test_replay_is_bit_identical(self, tmp_path):
        from repro.workloads.synthetic_traces import search_workload
        from repro.workloads.trace import ReplayWorkload, load_trace, save_trace

        topo = FlattenedButterfly(k=2, n=3)
        duration = 300_000.0
        workload = search_workload(topo.num_hosts, seed=53)
        events = list(workload.events(duration))
        path = tmp_path / "trace.csv"
        save_trace(path, events)

        def run(event_source):
            net = FbflyNetwork(topo, NetworkConfig(seed=53))
            net.attach_workload(event_source)
            return net.run(until_ns=duration)

        direct = run(iter(events))
        replayed = run(ReplayWorkload(
            load_trace(path), topo.num_hosts).events(duration))

        assert direct.bytes_delivered == replayed.bytes_delivered
        assert direct.mean_message_latency_ns() == \
            replayed.mean_message_latency_ns()
        assert direct.mean_packet_latency_ns() == \
            replayed.mean_packet_latency_ns()

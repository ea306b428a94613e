"""Property-based tests for the extension substrates:
lane ladders and fat-tree routing."""

from hypothesis import given, settings, strategies as st

from repro.power.lanes import (
    INFINIBAND_LANE_LADDER,
    LaneConfig,
    LaneLadder,
    ReactivationModel,
)
from repro.sim.clos_network import FatTreeNetwork
from repro.sim.invariants import check_fabric
from repro.sim.network import NetworkConfig
from repro.topology.fat_tree import FatTree


lane_configs = st.builds(
    LaneConfig,
    gbps_per_lane=st.sampled_from([1.25, 2.5, 5.0, 10.0]),
    lanes=st.sampled_from([1, 2, 4, 8]),
)


class TestLaneLadderProperties:
    @given(st.lists(lane_configs, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bandwidth_steps_stay_on_ladder(self, configs):
        ladder = LaneLadder(configs)
        for config in ladder:
            assert ladder.step_up_bandwidth(config) in ladder
            assert ladder.step_down_bandwidth(config) in ladder

    @given(st.lists(lane_configs, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bandwidth_steps_move_strictly_or_clamp(self, configs):
        ladder = LaneLadder(configs)
        for config in ladder:
            up = ladder.step_up_bandwidth(config)
            down = ladder.step_down_bandwidth(config)
            assert up.gbps >= config.gbps
            assert down.gbps <= config.gbps

    @given(st.lists(lane_configs, min_size=1, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reactivation_symmetric_and_non_negative(self, configs, data):
        ladder = LaneLadder(configs)
        model = ReactivationModel()
        a = data.draw(st.sampled_from(ladder.configs))
        b = data.draw(st.sampled_from(ladder.configs))
        assert model.latency_ns(a, b) == model.latency_ns(b, a)
        assert model.latency_ns(a, b) >= 0.0

    @given(st.sampled_from(INFINIBAND_LANE_LADDER.configs))
    @settings(max_examples=20, deadline=None)
    def test_descent_terminates_at_minimum(self, start):
        ladder = INFINIBAND_LANE_LADDER
        config = start
        for _ in range(10):
            config = ladder.step_down_bandwidth(config)
        assert config == ladder.configs[0]


class TestFatTreeProperties:
    @given(st.sampled_from([2, 4, 6]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_traffic_always_delivered(self, radix, data):
        topo = FatTree(radix=radix)
        net = FatTreeNetwork(topo, NetworkConfig(seed=7))
        n = topo.num_hosts
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=15))
        injected = 0
        for i, (src, dst) in enumerate(pairs):
            if src != dst:
                net.submit(i * 50.0, src, dst, 2048)
                injected += 1
        stats = net.run()
        assert stats.messages_delivered == injected
        check_fabric(net).raise_if_violated()

    @given(st.sampled_from([4, 6, 8]))
    @settings(max_examples=10, deadline=None)
    def test_structure_invariants(self, radix):
        topo = FatTree(radix=radix)
        # Every host maps to an edge switch in its own pod.
        for host in range(topo.num_hosts):
            edge = topo.host_switch(host)
            assert topo.is_edge(edge)
            assert host in topo.hosts_of_edge(edge)
        # Every core switch serves every pod exactly once.
        pods_served = {}
        for link in topo.agg_core_links():
            pods_served.setdefault(link.dst, set()).add(
                topo.pod_of(link.src))
        for core, pods in pods_served.items():
            assert len(pods) == topo.pods


"""Property-based end-to-end simulation tests.

Hypothesis drives random small FBFLYs with random traffic and asserts
the global invariants: everything injected is delivered, flow-control
credits are conserved, and the run is deterministic.
"""

from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig, EpochController
from repro.sim.invariants import check_fabric
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly


@st.composite
def traffic_case(draw):
    """A random small network shape plus a random message list."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 3))
    topo_hosts = k ** n
    messages = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
            st.integers(0, topo_hosts - 1),
            st.integers(0, topo_hosts - 1),
            st.integers(1, 32_768),
        ),
        max_size=25,
    ))
    seed = draw(st.integers(0, 2**16))
    return k, n, messages, seed


def run_case(k, n, messages, seed, controlled=False):
    net = FbflyNetwork(FlattenedButterfly(k=k, n=n),
                       NetworkConfig(seed=seed))
    if controlled:
        EpochController(net, config=ControllerConfig(
            independent_channels=True))
    injected = 0
    for time_ns, src, dst, size in messages:
        if src != dst:
            net.submit(time_ns, src, dst, size)
            injected += 1
    stats = net.run()
    return net, stats, injected


class TestEndToEndProperties:
    @given(traffic_case())
    @settings(max_examples=30, deadline=None)
    def test_everything_delivered_and_conserved(self, case):
        k, n, messages, seed = case
        net, stats, injected = run_case(k, n, messages, seed)
        assert stats.messages_delivered == injected
        check_fabric(net).raise_if_violated()

    @given(traffic_case())
    @settings(max_examples=15, deadline=None)
    def test_invariants_hold_under_rate_control(self, case):
        k, n, messages, seed = case
        net, stats, injected = run_case(k, n, messages, seed,
                                        controlled=True)
        assert stats.messages_delivered == injected
        check_fabric(net).raise_if_violated()

    @given(traffic_case())
    @settings(max_examples=10, deadline=None)
    def test_deterministic_replay(self, case):
        k, n, messages, seed = case
        _, first, _ = run_case(k, n, messages, seed)
        _, second, _ = run_case(k, n, messages, seed)
        assert first.mean_packet_latency_ns() == \
            second.mean_packet_latency_ns()
        assert first.bytes_delivered == second.bytes_delivered

    @given(traffic_case())
    @settings(max_examples=10, deadline=None)
    def test_latency_at_least_serialization_bound(self, case):
        k, n, messages, seed = case
        net, stats, injected = run_case(k, n, messages, seed)
        if stats.messages_delivered == 0:
            return
        # No message can beat one MTU serialization at max rate plus a
        # router traversal.
        min_bound = 1.0 / 5.0 + net.config.router_latency_ns
        assert stats.message_latency.percentile(0) > min_bound

"""Link-fault injection and routing resilience."""

import pytest

from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.sim.faults import LinkFaultInjector
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import MS
from repro.workloads.uniform import UniformRandomWorkload


def make_network(k=4, n=2, seed=13):
    topo = FlattenedButterfly(k=k, n=n)
    return FbflyNetwork(topo, NetworkConfig(seed=seed),
                        routing_factory=RestrictedAdaptiveRouting)


class TestFailAndRepair:
    def test_failed_link_goes_dark(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        injector.fail_link(1000.0, 0, 1)
        net.run(until_ns=2000.0)
        assert net.switch_channel(0, 1).is_off
        assert net.switch_channel(1, 0).is_off
        assert injector.active_faults == 1

    def test_repair_restores_the_link(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        injector.fail_link(1000.0, 0, 1, repair_after_ns=5000.0)
        net.run(until_ns=10_000.0)
        assert not net.switch_channel(0, 1).is_off
        assert injector.active_faults == 0

    def test_fault_records_kept(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        record = injector.fail_link(500.0, 1, 2, repair_after_ns=1000.0)
        assert record.link == (1, 2)
        assert record.repaired_ns == 1500.0
        assert len(injector.records) == 1


class TestTrafficSurvivesFaults:
    def test_delivery_around_a_failed_link(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        # Fail the direct link between switch 0 and switch 3 while
        # traffic flows from hosts on 0 to hosts on 3.
        injector.fail_link(50_000.0, 0, 3)
        for i in range(60):
            net.submit(i * 2000.0, src=0, dst=13, size_bytes=4096)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_stranded_packets_are_rerouted(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        # Queue a burst onto the 0->3 channel, then kill it mid-drain.
        for i in range(30):
            net.submit(i * 100.0, src=0, dst=13, size_bytes=4096)
        injector.fail_link(20_000.0, 0, 3)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)
        assert injector.records[0].stranded_packets >= 0

    def test_uniform_traffic_through_fault_and_repair(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        injector.fail_link(100_000.0, 0, 1, repair_after_ns=200_000.0)
        injector.fail_link(150_000.0, 2, 3, repair_after_ns=100_000.0)
        wl = UniformRandomWorkload(net.topology.num_hosts,
                                   offered_load=0.1,
                                   message_bytes=16_384, seed=13)
        net.attach_workload(wl.events(0.5 * MS))
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_latency_rises_under_fault(self):
        def run_with(fault: bool) -> float:
            net = make_network()
            if fault:
                LinkFaultInjector(net).fail_link(0.0, 0, 1)
            for i in range(100):
                net.submit(i * 1000.0, src=0, dst=5, size_bytes=8192)
            stats = net.run()
            assert stats.delivered_fraction() == pytest.approx(1.0)
            return stats.mean_message_latency_ns()

        # Host 5 lives on switch 1; without the direct 0->1 link the
        # traffic detours through intermediate switches.
        assert run_with(True) > run_with(False)

"""Fault-injection edge cases: timing races and repair interactions."""

import math

import pytest

from repro.core.controller import ControllerConfig, EpochController
from repro.faults.scenario import (
    FaultScenario,
    SwitchChipFailure,
    apply_scenario,
)
from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.sim.faults import LinkFaultInjector
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import US


def fail_chip(net, injector, time_ns, switch, down_ns=None):
    """Fail every link of one switch chip the way a scenario does."""
    scenario = FaultScenario(
        "chip", chip_failures=(SwitchChipFailure(time_ns, switch, down_ns),))
    apply_scenario(scenario, net, injector, until_ns=math.inf)


def make_network(seed=71):
    return FbflyNetwork(FlattenedButterfly(k=4, n=2),
                        NetworkConfig(seed=seed),
                        routing_factory=RestrictedAdaptiveRouting)


class TestFailureWhileBusy:
    def test_fail_mid_transmission_defers_power_off(self):
        # A 32 kB MTU makes one packet a 6.5 us transmission at 40 Gb/s,
        # so the fault lands while the serializer is busy: the channel
        # must go dark only after the in-flight packet finishes.
        net = FbflyNetwork(
            FlattenedButterfly(k=4, n=2),
            NetworkConfig(seed=71, mtu_bytes=32768,
                          queue_capacity_bytes=65536,
                          credit_bytes=65536),
            routing_factory=RestrictedAdaptiveRouting)
        injector = LinkFaultInjector(net)
        ch = net.switch_channel(0, 1)
        net.submit(0.0, src=0, dst=5, size_bytes=32768)
        # Host uplink serializes ~6.5 us; inter-switch tx runs roughly
        # 6.8 -> 13.3 us.  Fail at 8 us, mid-transmission.
        injector.fail_link(8_000.0, 0, 1)
        net.run(until_ns=8_500.0)
        assert not ch.is_off            # still draining the wire
        net.run(until_ns=50_000.0)
        assert ch.is_off                # dark once drained
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_fail_twice_is_idempotent(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        injector.fail_link(1000.0, 0, 1)
        injector.fail_link(2000.0, 0, 1)   # already dark
        net.run(until_ns=5000.0)
        assert injector.active_faults >= 1
        assert net.switch_channel(0, 1).is_off


class TestRepairInteractions:
    def test_traffic_uses_repaired_link_again(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        injector.fail_link(0.0, 0, 1, repair_after_ns=100_000.0)
        # After repair, direct 0->1 traffic should flow over the link.
        for i in range(30):
            net.submit(200_000.0 + i * 2000.0, src=0, dst=5,
                       size_bytes=4096)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)
        assert net.switch_channel(0, 1).stats.packets_sent > 0

    def test_fault_under_rate_control(self):
        # The epoch controller and the fault injector must coexist: the
        # controller skips dark channels, the injector ignores detuned
        # ones, and traffic still flows.
        net = make_network()
        EpochController(net, config=ControllerConfig(
            independent_channels=True))
        injector = LinkFaultInjector(net)
        injector.fail_link(100.0 * US, 1, 2, repair_after_ns=300.0 * US)
        n = net.topology.num_hosts
        for i in range(80):
            net.submit(i * 10_000.0, src=i % n, dst=(i + 5) % n,
                       size_bytes=8192)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_repair_without_fault_is_harmless(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        # Schedule only the repair path (fail with instant repair).
        injector.fail_link(1000.0, 2, 3, repair_after_ns=1.0)
        net.run(until_ns=10_000.0)
        assert not net.switch_channel(2, 3).is_off


def hosts_on_switch(net, switch_id):
    return [h for h in range(net.topology.num_hosts)
            if net.topology.host_switch(h) == switch_id]


class TestSimultaneousChipAndLinkFaults:
    """BFS partition detection under compound (chip + link) faults.

    The k=4, n=2 FBFLY is a full mesh of 4 switches (6 links, 4 hosts
    per switch): killing one chip isolates exactly that switch.
    """

    def test_chip_death_plus_link_fault_detects_the_partition(self):
        # Switch 2's chip dies at the same instant the 0-1 link fails:
        # from switch 1 the direct hop (1->2), the up-detour (also
        # into 2) and the down-detour (1->0, the failed link) are all
        # dark, so routing dead-ends immediately.  The BFS detector
        # must prove the singleton partition {2} on the first
        # undeliverable packet, not crash, and not count the
        # healthy-but-degraded remainder {0, 1, 3} as partitioned.
        net = make_network()
        injector = LinkFaultInjector(net)
        fail_chip(net, injector, 10_000.0, 2)
        injector.fail_link(10_000.0, 0, 1)       # same timestamp
        victim = hosts_on_switch(net, 2)[0]
        src = hosts_on_switch(net, 1)[0]
        for i in range(4):
            net.submit(20_000.0 + i * 1_000.0, src=src, dst=victim,
                       size_bytes=1024)
        net.run(until_ns=200_000.0)
        assert injector.faults_applied == 4      # 3 incident + 1 link
        assert injector.dropped_packets >= 4
        assert len(injector.partitions) == 1     # once per signature
        event = injector.partitions[0]
        sizes = sorted(len(c) for c in event.components)
        assert sizes == [1, 3]
        assert (2,) in event.components

    def test_partition_heals_and_is_redetected_as_new_signature(self):
        # Chip repair reconnects the fabric; a *different* chip dying
        # afterwards is a new component signature and must be recorded
        # as a second partition event, not deduplicated against the
        # first.  Both dead chips (3, then 0) sit on the ring's 0<->3
        # wrap, so every detour around them is provably dark and the
        # doomed packets dead-end at a switch with no candidates
        # instead of circling the healthy remainder.
        net = make_network()
        injector = LinkFaultInjector(net)
        fail_chip(net, injector, 10_000.0, 3, down_ns=50_000.0)
        fail_chip(net, injector, 150_000.0, 0)
        victim3 = hosts_on_switch(net, 3)[0]
        victim0 = hosts_on_switch(net, 0)[0]
        src = hosts_on_switch(net, 1)[0]
        net.submit(20_000.0, src=src, dst=victim3, size_bytes=1024)
        # After switch 3's repair, traffic to it flows again...
        net.submit(100_000.0, src=src, dst=victim3, size_bytes=1024)
        # ...and the second chip death isolates switch 0 instead.
        net.submit(160_000.0, src=src, dst=victim0, size_bytes=1024)
        stats = net.run(until_ns=400_000.0)
        assert len(injector.partitions) == 2
        first, second = injector.partitions
        assert (3,) in first.components
        assert (0,) in second.components
        assert stats.packets_dropped == 2        # healed window delivered

    def test_connected_fabric_under_compound_faults_records_none(self):
        # Chip + link faults that leave the fabric connected must not
        # record a partition even while packets drop at local routing
        # dead-ends: reachability, not drops, defines a partition.
        net = make_network()
        injector = LinkFaultInjector(net)
        # Two of the six mesh links down: 0-2, 0-3, 1-2 and 1-3 still
        # span all four switches.
        injector.fail_link(10_000.0, 0, 1)
        injector.fail_link(10_000.0, 2, 3)
        n = net.topology.num_hosts
        for i in range(60):
            net.submit(20_000.0 + i * 2_000.0, src=i % n,
                       dst=(i + 7) % n, size_bytes=2048)
        net.run(until_ns=500_000.0)
        assert injector.faults_applied == 2
        assert injector.partitions == []


class TestRepairRacesDeferredPowerOff:
    """Repairs landing while ``_defer_power_off`` is still polling."""

    def make_busy_network(self):
        # A 32 kB MTU makes one packet a ~6.5 us transmission at
        # 40 Gb/s, so a fault at 8 us lands mid-serialization and the
        # injector must defer the hard power-off.
        return FbflyNetwork(
            FlattenedButterfly(k=4, n=2),
            NetworkConfig(seed=71, mtu_bytes=32768,
                          queue_capacity_bytes=65536,
                          credit_bytes=65536),
            routing_factory=RestrictedAdaptiveRouting)

    def test_repair_before_drain_cancels_the_pending_power_off(self):
        net = self.make_busy_network()
        injector = LinkFaultInjector(net)
        ch = net.switch_channel(0, 1)
        net.submit(0.0, src=0, dst=5, size_bytes=32768)
        # Fault at 8 us (mid-transmission, drain ends ~13.3 us); the
        # repair at 10 us beats the drain, so the deferred power-off
        # must stand down instead of darkening a repaired link.
        injector.fail_link(8_000.0, 0, 1, repair_after_ns=2_000.0)
        net.run(until_ns=60_000.0)
        assert not ch.is_off
        assert not ch.draining
        # The repaired link carries traffic again.
        for i in range(10):
            net.submit(70_000.0 + i * 2_000.0, src=0, dst=5,
                       size_bytes=4096)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)
        assert injector.repairs_applied == 1
        assert not injector.records[0].power_off_timeout

    def test_exhausted_defer_budget_leaves_channel_draining(self):
        net = self.make_busy_network()
        injector = LinkFaultInjector(net, max_defer_polls=2)
        ch = net.switch_channel(0, 1)
        net.submit(0.0, src=0, dst=5, size_bytes=32768)
        injector.fail_link(8_000.0, 0, 1)
        net.run(until_ns=60_000.0)
        # Budget (2 polls x 100 ns) expires long before the ~5 us of
        # remaining drain: the injector gives up, records why, and the
        # channel stays draining (unusable but accounted) not off.
        record = injector.records[0]
        assert record.power_off_timeout is True
        assert not ch.is_off
        assert ch.draining

    def test_repair_after_timeout_restores_the_draining_channel(self):
        net = self.make_busy_network()
        injector = LinkFaultInjector(net, max_defer_polls=2)
        ch = net.switch_channel(0, 1)
        net.submit(0.0, src=0, dst=5, size_bytes=32768)
        injector.fail_link(8_000.0, 0, 1, repair_after_ns=100_000.0)
        net.run(until_ns=60_000.0)
        assert injector.records[0].power_off_timeout is True
        assert ch.draining                       # stuck until repair
        net.run(until_ns=150_000.0)
        assert not ch.is_off
        assert not ch.draining                   # repair cleared it
        for i in range(10):
            net.submit(160_000.0 + i * 2_000.0, src=0, dst=5,
                       size_bytes=4096)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)

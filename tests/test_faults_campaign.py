"""The fault-campaign subsystem: scenarios, sensors, guard, policy.

Covers the declarative :class:`~repro.faults.scenario.FaultScenario`
DSL, the deterministic sensor-corruption wrapper, the spanning-set
guard, the fault-aware gating controller, and the graceful-degradation
contract (drops accounted, partitions detected, strict mode raising).
"""

from __future__ import annotations

import math

import pytest

from repro.core.controller import ControllerConfig
from repro.core.policies import DemandLadderPolicy
from repro.core.sensors import GroupReading, UtilizationSensor
from repro.faults.policy import (
    FaultAwareEpochController,
    GatingConfig,
    SpanningSetGuard,
)
from repro.faults.scenario import (
    FaultScenario,
    LinkFlap,
    RandomLinkFaults,
    SensorFault,
    SwitchChipFailure,
    apply_scenario,
    build_scenario,
    register_scenario,
    registered_scenarios,
)
from repro.faults.sensors import FaultySensor
from repro.obs.decisions import DecisionLog, FAULT_REASONS
from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.sim.faults import LinkFaultInjector, PartitionDetected
from repro.sim.invariants import (
    check_fabric,
    reachable_switches,
    switch_components,
)
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly


def fail_chip(net, injector, time_ns, switch, down_ns=None):
    """Fail every link of one switch chip the way a scenario does."""
    scenario = FaultScenario(
        "chip", chip_failures=(SwitchChipFailure(time_ns, switch, down_ns),))
    apply_scenario(scenario, net, injector, until_ns=math.inf)


def make_network(k=4, n=2, seed=13):
    topo = FlattenedButterfly(k=k, n=n)
    return FbflyNetwork(topo, NetworkConfig(seed=seed),
                        routing_factory=RestrictedAdaptiveRouting)


def all_links(network):
    return sorted({(min(a, b), max(a, b))
                   for a, b in network.switch_channel_map()})


class TestScenarioDsl:
    def test_flaps_compile_in_time_order(self):
        scenario = FaultScenario(
            name="t", seed=7,
            flaps=(LinkFlap(5000.0, 1, 2, down_ns=1000.0),
                   LinkFlap(1000.0, 0, 1)))
        events = scenario.compile(links=[(0, 1), (1, 2)],
                                  duration_ns=10_000.0)
        times = [t for t, _, _, _ in events]
        assert times == sorted(times)
        assert events[0] == (1000.0, 0, 1, None)
        assert events[1] == (5000.0, 1, 2, 1000.0)

    def test_chip_failure_expands_to_incident_links(self):
        links = [(0, 1), (0, 2), (1, 2), (2, 3)]
        scenario = FaultScenario(
            name="t", chip_failures=(SwitchChipFailure(100.0, 2),))
        events = scenario.compile(links=links, duration_ns=1000.0)
        assert sorted((a, b) for _, a, b, _ in events) == [
            (0, 2), (1, 2), (2, 3)]
        assert all(t == 100.0 for t, _, _, _ in events)

    def test_random_faults_fall_within_window(self):
        scenario = FaultScenario(
            name="t", seed=3,
            random_faults=RandomLinkFaults(mtbf_ns=5_000.0,
                                           mttr_ns=1_000.0))
        events = scenario.compile(links=[(0, 1), (1, 2), (2, 3)],
                                  duration_ns=50_000.0)
        assert events, "an MTBF of duration/10 should produce faults"
        for time_ns, _, _, down_ns in events:
            assert 0.0 <= time_ns < 50_000.0
            assert down_ns > 0.0

    def test_link_rng_is_per_link_and_order_blind(self):
        scenario = FaultScenario(name="t", seed=11)
        assert (scenario.link_rng(2, 5).random()
                == scenario.link_rng(5, 2).random())
        assert (scenario.link_rng(2, 5).random()
                != scenario.link_rng(2, 6).random())

    def test_validation_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RandomLinkFaults(mtbf_ns=0.0, mttr_ns=1.0)
        with pytest.raises(ValueError):
            RandomLinkFaults(mtbf_ns=1.0, mttr_ns=-1.0)
        with pytest.raises(ValueError):
            SensorFault(kind="wedged")
        with pytest.raises(ValueError):
            SensorFault(fraction=1.5)

    def test_registry_round_trip(self):
        name = "test-campaign-registry"
        register_scenario(
            name, lambda spec: FaultScenario(name=name, seed=spec.fault_seed))
        assert name in registered_scenarios()

        class _Spec:
            fault_seed = 9
            duration_ns = 1000.0

        scenario = build_scenario(name, _Spec())
        assert scenario.seed == 9

    def test_unknown_scenario_raises_with_inventory(self):
        class _Spec:
            fault_seed = 0
            duration_ns = 1000.0

        with pytest.raises(ValueError, match="mtbf"):
            build_scenario("no-such-scenario", _Spec())

    def test_builtin_scenarios_are_registered(self):
        registered = registered_scenarios()
        for name in ("mtbf", "mtbf_clean", "flap", "chipkill",
                     "stuck_sensor", "noisy_sensor"):
            assert name in registered

    def test_apply_scenario_schedules_onto_injector(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        scenario = FaultScenario(
            name="t", flaps=(LinkFlap(1000.0, 0, 1, down_ns=2000.0),))
        schedule = apply_scenario(scenario, net, injector,
                                  until_ns=10_000.0)
        assert len(schedule) == 1
        assert len(injector.records) == 1
        net.run(until_ns=1500.0)
        assert net.switch_channel(0, 1).is_off


class TestFaultySensor:
    READING = GroupReading(utilization=0.6, queue_fraction=0.0,
                           credit_stalls=0)

    def test_stuck_sensor_reports_the_stuck_value(self):
        net = make_network()
        sensor = FaultySensor(UtilizationSensor(),
                              SensorFault(kind="stuck", value=0.0,
                                          fraction=1.0),
                              net, seed=1)
        assert sensor.estimate("g", self.READING) == 0.0

    def test_healthy_before_fault_start(self):
        net = make_network()
        sensor = FaultySensor(UtilizationSensor(),
                              SensorFault(kind="stuck", value=0.0,
                                          fraction=1.0,
                                          start_ns=1_000_000.0),
                              net, seed=1)
        base = UtilizationSensor().estimate("g", self.READING)
        assert sensor.estimate("g", self.READING) == base

    def test_fraction_zero_never_corrupts(self):
        net = make_network()
        sensor = FaultySensor(UtilizationSensor(),
                              SensorFault(kind="stuck", value=0.0,
                                          fraction=0.0),
                              net, seed=1)
        base = UtilizationSensor().estimate("g", self.READING)
        assert sensor.estimate("g", self.READING) == base

    def test_noisy_sensor_is_deterministic_and_nonnegative(self):
        net = make_network()

        def build():
            return FaultySensor(UtilizationSensor(),
                                SensorFault(kind="noisy", sigma=0.3,
                                            fraction=1.0),
                                net, seed=5)

        a, b = build(), build()
        series_a = [a.estimate("g", self.READING) for _ in range(10)]
        series_b = [b.estimate("g", self.READING) for _ in range(10)]
        assert series_a == series_b
        assert all(v >= 0.0 for v in series_a)
        assert series_a != [series_a[0]] * 10

    def test_affection_is_per_group_deterministic(self):
        net = make_network()
        fault = SensorFault(kind="stuck", value=0.0, fraction=0.5)
        a = FaultySensor(UtilizationSensor(), fault, net, seed=2)
        b = FaultySensor(UtilizationSensor(), fault, net, seed=2)
        groups = [f"group{i}" for i in range(20)]
        assert ([a.affected(g) for g in groups]
                == [b.affected(g) for g in groups])
        assert any(a.affected(g) for g in groups)
        assert not all(a.affected(g) for g in groups)


class TestSpanningSetGuard:
    def test_ring_links_cover_every_switch(self):
        net = make_network(k=4, n=2)
        guard = SpanningSetGuard(net)
        ring = guard.ring_links()
        touched = {s for link in ring for s in link}
        assert touched == set(range(net.topology.num_switches))

    def test_refresh_drops_unavailable_links(self):
        net = make_network(k=4, n=2)
        guard = SpanningSetGuard(net)
        full = guard.refresh(all_links(net))
        dead = next(iter(sorted(full)))
        reduced = guard.refresh([l for l in all_links(net) if l != dead])
        assert dead in full and dead not in reduced



def make_controller(net, guard=None, gating=None, log=None):
    return FaultAwareEpochController(
        net,
        policy=DemandLadderPolicy(0.5),
        config=ControllerConfig(epoch_ns=1_000.0, reactivation_ns=100.0),
        sensor=UtilizationSensor(),
        decision_log=log,
        gating=gating or GatingConfig(off_estimate=0.05, idle_epochs=2,
                                      sleep_epochs=1000),
        guard=guard,
        name="fault_pinned" if guard is not None else "fault_gated",
    )


class TestFaultAwareController:
    def test_idle_fabric_gets_gated_off(self):
        net = make_network()
        controller = make_controller(net)
        net.run(until_ns=20_000.0)
        assert controller.gated_offs > 0
        assert any(ch.is_off for ch in net.tunable_channels())

    def test_guard_refuses_to_gate_the_ring(self):
        net = make_network()
        guard = SpanningSetGuard(net)
        controller = make_controller(net, guard=guard)
        net.run(until_ns=20_000.0)
        assert controller.pinned_holds > 0
        for a, b in guard.pinned:
            assert not net.switch_channel(a, b).is_off
            assert not net.switch_channel(b, a).is_off
        # The fabric the guard leaves on still connects every switch.
        assert len(switch_components(net)) == 1

    def test_gated_groups_wake_after_sleep_epochs(self):
        net = make_network()
        controller = make_controller(
            net, gating=GatingConfig(off_estimate=0.05, idle_epochs=2,
                                     sleep_epochs=3))
        net.run(until_ns=40_000.0)
        assert controller.gated_wakes > 0

    def test_gating_decisions_land_in_the_decision_log(self):
        net = make_network()
        log = DecisionLog(max_records=None)
        controller = make_controller(net, log=log)
        net.run(until_ns=20_000.0)
        reasons = {d.reason for d in log.records}
        assert "gated_off" in reasons
        assert controller.gated_offs > 0
        # Fault/gating records never claim a transition, so the audit
        # (transition counts == reconfigurations) is preserved.
        for decision in log.records:
            if decision.reason in FAULT_REASONS:
                assert decision.changed is False

    def test_queue_crosscheck_overrides_a_stuck_sensor(self):
        net = make_network()
        stuck = FaultySensor(
            UtilizationSensor(),
            SensorFault(kind="stuck", value=0.0, fraction=1.0),
            net, seed=1)
        controller = FaultAwareEpochController(
            net, policy=DemandLadderPolicy(0.5),
            config=ControllerConfig(epoch_ns=1_000.0,
                                    reactivation_ns=100.0),
            sensor=stuck, gating=GatingConfig(idle_epochs=10_000))
        ladder = net.config.ladder
        group = next(g for g in controller.groups
                     if g.name in controller._endpoints)
        reading = GroupReading(utilization=0.9, queue_fraction=0.9,
                               credit_stalls=0)
        controller._decide_group(group, reading, ladder,
                                 now=0.0, log=None)
        # The stuck sensor says idle; the queue says otherwise.  The
        # cross-check must win: no idle credit accrues.
        assert controller._idle.get(group.name, 0) == 0


class TestGracefulDegradation:
    def test_unroutable_traffic_is_dropped_not_crashed(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        fail_chip(net, injector, 1_000.0, 3)
        # Hosts 12..15 sit on switch 3 (c=k=4): unreachable after the
        # chip failure.
        for i in range(5):
            net.submit(2_000.0 + i * 500.0, src=0, dst=13,
                       size_bytes=4096)
        stats = net.run(until_ns=50_000.0)
        assert stats.packets_dropped > 0
        assert injector.dropped_packets == stats.packets_dropped
        check_fabric(net).raise_if_violated()

    def test_partition_recorded_once_per_signature(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        fail_chip(net, injector, 1_000.0, 3)
        for i in range(8):
            net.submit(2_000.0 + i * 500.0, src=0, dst=13,
                       size_bytes=4096)
        net.run(until_ns=50_000.0)
        assert len(injector.partitions) == 1
        event = injector.partitions[0]
        assert event.dst_switch == 3
        assert any(c == (3,) for c in event.components)

    def test_strict_mode_raises_structured_partition(self):
        net = make_network()
        injector = LinkFaultInjector(net, strict=True)
        fail_chip(net, injector, 1_000.0, 3)
        net.submit(2_000.0, src=0, dst=13, size_bytes=4096)
        with pytest.raises(PartitionDetected) as exc_info:
            net.run(until_ns=50_000.0)
        event = exc_info.value.event
        assert event.dst_switch == 3
        assert len(event.components) == 2

    def test_dead_end_without_partition_is_not_an_event(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        # One failed link leaves the fabric connected; any drop that
        # somehow occurred would not be a partition.  With restricted
        # routing the traffic just detours: no drops at all.
        injector.fail_link(1_000.0, 0, 3)
        for i in range(10):
            net.submit(2_000.0 + i * 500.0, src=0, dst=13,
                       size_bytes=4096)
        stats = net.run(until_ns=100_000.0)
        assert injector.partitions == []
        assert stats.delivered_fraction() == pytest.approx(1.0)

    def test_reachability_helpers_see_usable_graph_only(self):
        net = make_network()
        injector = LinkFaultInjector(net)
        fail_chip(net, injector, 1_000.0, 3)
        net.run(until_ns=2_000.0)
        reach = reachable_switches(net, 0)
        assert 3 not in reach
        components = switch_components(net)
        assert (3,) in components
        assert injector.active_faults == 3


class TestRunnerIntegration:
    def test_fault_spec_round_trips_through_the_cache(self, tmp_path):
        from repro.experiments.cache import SweepCache, summary_digest
        from repro.experiments.runner import (
            SimulationSpec,
            run_simulation,
        )

        spec = SimulationSpec(k=4, n=2, workload="uniform",
                              duration_ns=100_000.0, seed=1,
                              control="fault_pinned", policy="ladder",
                              faults="flap", fault_seed=2)
        summary = run_simulation(spec)
        assert summary.faults is not None
        assert summary.faults["scenario"] == "flap"
        assert summary.faults["controller"] == "fault_pinned"
        cache = SweepCache(tmp_path)
        cache.put(spec, summary)
        loaded = SweepCache(tmp_path).get(spec)
        assert loaded is not None
        assert summary_digest(loaded) == summary_digest(summary)

    def test_default_spec_cache_key_unchanged_by_fault_fields(self):
        from repro.experiments.cache import canonical_spec_json, spec_key
        from repro.experiments.runner import SimulationSpec

        healthy = SimulationSpec()
        encoded = canonical_spec_json(healthy)
        assert "faults" not in encoded
        assert "fault_seed" not in encoded
        faulty = SimulationSpec(faults="mtbf", fault_seed=1)
        assert spec_key(faulty) != spec_key(healthy)

    def test_healthy_summary_digest_has_no_faults_key(self):
        from repro.experiments.cache import summary_digest
        from repro.experiments.runner import (
            SimulationSpec,
            run_simulation,
        )

        digest = summary_digest(run_simulation(
            SimulationSpec(k=2, n=2, duration_ns=50_000.0)))
        assert "faults" not in digest

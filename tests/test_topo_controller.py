"""The demand-aware topology controller and its connectivity guard.

Covers the third control axis end to end: idle darkening, hysteresis
holds, pressure-driven wake, the registry wiring, the crash/failsafe
interop — and the intersection case the guard exists for: deliberate
power-off co-existing with injected link faults, including the
livelock-adjacent scenario where the last spanning candidate is both
cold (topology-dark) and cut off by faults.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig
from repro.core.failsafe import FailsafeGuard, GuardedGroup
from repro.core.policies import DemandLadderPolicy
from repro.core.registry import build_controller, control_mode_registered
from repro.core.sensors import UtilizationSensor
from repro.faults.control_faults import (
    ChaosGroup,
    ControlFaultScenario,
    ControlPlaneChaos,
)
from repro.faults.policy import SpanningSetGuard
from repro.obs.decisions import (
    DecisionLog,
    TOPOLOGY_GUARD_VETO,
    TOPOLOGY_OFF,
    TOPOLOGY_ON,
    TOPOLOGY_REASONS,
)
from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.sim.channel import ChannelState
from repro.sim.faults import LinkFaultInjector
from repro.sim.invariants import switch_components
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topo import (
    DemandAwareTopologyController,
    TOPO_CONTROL_MODES,
    TopologyControlConfig,
)
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.mesh_torus import LinkClass


def make_network(k=4, n=2, seed=13):
    topo = FlattenedButterfly(k=k, n=n)
    return FbflyNetwork(topo, NetworkConfig(seed=seed),
                        routing_factory=RestrictedAdaptiveRouting)


def make_controller(net, topo=None, log=None):
    return DemandAwareTopologyController(
        net,
        policy=DemandLadderPolicy(0.5),
        config=ControllerConfig(epoch_ns=1_000.0, reactivation_ns=100.0),
        sensor=UtilizationSensor(),
        decision_log=log,
        topo=topo or TopologyControlConfig(),
    )


class TestRegistry:
    def test_import_registers_both_control_modes(self):
        for name in TOPO_CONTROL_MODES:
            assert control_mode_registered(name)

    def test_registry_builds_the_controller(self):
        from repro.experiments.runner import SimulationSpec

        net = make_network()
        spec = SimulationSpec(control="demand_topo", forecaster="ewma")
        controller = build_controller("demand_topo", net, spec, None)
        assert isinstance(controller, DemandAwareTopologyController)
        assert controller.name == "demand_topo"
        assert controller.demand.forecaster is not None

    def test_degraded_mode_starts_dark_and_frozen(self):
        from repro.experiments.runner import SimulationSpec

        net = make_network()
        controller = build_controller(
            "degraded_topo", net, SimulationSpec(), None)
        assert controller.topo.freeze
        assert controller.topo.start_dark == (LinkClass.EXPRESS.value,)
        assert len(controller._dark) > 0


class TestIdleDarkening:
    def test_idle_fabric_powers_groups_off(self):
        net = make_network()
        controller = make_controller(net)
        net.run(until_ns=40_000.0)
        assert controller.topology_offs > 0
        assert any(ch.is_off for ch in net.tunable_channels())
        # Deliberate power-off never disconnects the usable fabric.
        assert len(switch_components(net)) == 1

    def test_pinned_spanning_set_is_never_darkened(self):
        net = make_network()
        controller = make_controller(net)
        net.run(until_ns=40_000.0)
        for a, b in controller.guard.pinned:
            assert not net.switch_channel(a, b).is_off
            assert not net.switch_channel(b, a).is_off

    def test_max_dark_fraction_caps_the_dark_set(self):
        # k=4, n=3: 48 inter-switch groups, so the 10% cap (4) binds
        # well below what the guard alone would allow.
        net = make_network(k=4, n=3)
        topo = TopologyControlConfig(max_dark_fraction=0.1)
        controller = make_controller(net, topo=topo)
        net.run(until_ns=40_000.0)
        cap = int(0.1 * len(controller._candidates()))
        assert 0 < len(controller._dark) <= cap

    def test_hysteresis_holds_before_min_dwell(self):
        net = make_network()
        topo = TopologyControlConfig(min_dwell_epochs=50)
        controller = make_controller(net, topo=topo)
        net.run(until_ns=10_000.0)   # 10 epochs < 50 dwell
        assert controller.topology_offs == 0
        assert controller.topology_holds > 0

    def test_topology_decisions_land_in_the_log_unchanged(self):
        net = make_network()
        log = DecisionLog(max_records=None)
        controller = make_controller(net, log=log)
        net.run(until_ns=40_000.0)
        reasons = {d.reason for d in log.records}
        assert TOPOLOGY_OFF in reasons
        for decision in log.records:
            if decision.reason in TOPOLOGY_REASONS:
                # Never claims a rate transition: the audit holds.
                assert decision.changed is False
        offs = [d for d in log.records if d.reason == TOPOLOGY_OFF]
        assert len(offs) == controller.topology_offs
        assert all(d.new_rate is None for d in offs)

    def test_summary_accounts_for_every_event(self):
        net = make_network()
        controller = make_controller(net)
        net.run(until_ns=40_000.0)
        digest = controller.topo_summary()
        assert digest["controller"] == "demand_topo"
        assert digest["topology_offs"] == controller.topology_offs
        assert digest["dark_final"] == len(controller._dark)
        assert digest["epochs"] == len(controller._dark_per_epoch)
        assert digest["guard_violations"] == 0


class TestWake:
    def test_traffic_pressure_wakes_dark_groups(self):
        net = make_network()
        # Any nonzero endpoint pressure triggers reactivation.
        topo = TopologyControlConfig(on_fraction=0.001,
                                     min_dwell_epochs=2)
        controller = make_controller(net, topo=topo)
        net.run(until_ns=20_000.0)   # idle: groups go dark
        assert len(controller._dark) > 0
        n = net.topology.num_hosts
        t = 20_000.0
        for i in range(400):
            net.submit(t, src=i % n, dst=(i * 7 + 3) % n,
                       size_bytes=8192)
            t += 50.0
        net.run(until_ns=60_000.0)
        assert controller.topology_ons > 0
        assert controller.reactivation_waits == controller.topology_ons
        assert controller.reactivation_wait_ns > 0

    def test_wake_records_reactivation_latency_in_the_log(self):
        net = make_network()
        log = DecisionLog(max_records=None)
        topo = TopologyControlConfig(on_fraction=0.001,
                                     min_dwell_epochs=2)
        controller = make_controller(net, topo=topo, log=log)
        net.run(until_ns=20_000.0)
        n = net.topology.num_hosts
        for i in range(400):
            net.submit(20_000.0 + i * 50.0, src=i % n,
                       dst=(i * 7 + 3) % n, size_bytes=8192)
        net.run(until_ns=60_000.0)
        ons = [d for d in log.records if d.reason == TOPOLOGY_ON]
        assert ons and controller.topology_ons == len(ons)
        assert all(d.reactivation_ns == 100.0 for d in ons)


class TestConnectivityGuard:
    def test_removing_the_only_link_is_vetoed(self):
        net = make_network(k=2, n=2)   # two switches, one link
        guard = SpanningSetGuard(net)
        guard.refresh([(0, 1)])
        assert not guard.may_power_off((0, 1), {(0, 1)})

    def test_connected_is_a_real_bfs(self):
        net = make_network(k=4, n=2)   # complete graph on 4 switches
        guard = SpanningSetGuard(net)
        ring = {(0, 1), (1, 2), (2, 3)}
        assert guard.connected(ring | {(0, 3)})
        assert guard.connected(ring)            # a path suffices
        assert not guard.connected({(0, 1), (2, 3)})

    def test_cut_edge_vetoed_even_when_unpinned(self):
        net = make_network(k=4, n=2)
        guard = SpanningSetGuard(net)
        # The ring pins only (0, 1) and (0, 3) of these, not (2, 3);
        # with only a path left usable, removing any of its edges
        # disconnects.
        guard.refresh([(0, 1), (0, 2), (0, 3)])
        usable = {(0, 1), (1, 2), (2, 3)}
        assert (2, 3) not in guard.pinned
        assert not guard.may_power_off((2, 3), usable)


class TestFaultIntersection:
    """Satellite: demand-driven power-off plus injected link faults."""

    def test_simultaneous_darkening_and_faults_stay_connected(self):
        net = make_network(k=4, n=3)   # 16 switches
        controller = make_controller(net)
        injector = LinkFaultInjector(net)
        # Faults land while the idle fabric is being darkened.
        injector.fail_link(5_000.0, 0, 1)
        injector.fail_link(8_000.0, 4, 5, repair_after_ns=20_000.0)
        net.run(until_ns=60_000.0)
        assert controller.topology_offs > 0
        assert injector.partitions == []
        assert len(switch_components(net)) == 1
        assert controller.guard.violations == 0

    def test_guard_vetoes_appear_once_faults_shrink_the_fabric(self):
        net = make_network(k=4, n=2)
        log = DecisionLog(max_records=None)
        # Aggressive darkening against a fabric faults keep shrinking:
        # the BFS veto is what stands between this and a partition.
        topo = TopologyControlConfig(min_dwell_epochs=1,
                                     max_dark_fraction=1.0)
        controller = make_controller(net, topo=topo, log=log)
        injector = LinkFaultInjector(net)
        injector.fail_link(2_000.0, 0, 1)
        injector.fail_link(2_000.0, 1, 2)
        net.run(until_ns=40_000.0)
        assert controller.guard_vetoes > 0
        assert TOPOLOGY_GUARD_VETO in {d.reason for d in log.records}
        assert injector.partitions == []
        assert len(switch_components(net)) == 1

    def test_last_spanning_candidate_cold_and_faulted(self):
        """The livelock-adjacent case: faults cut every lit path to a
        switch whose only remaining link is topology-dark.  The
        reconnect pass must wake the cold link (the fault cannot be
        repaired from here), not spin on vetoes or partition."""
        net = make_network(k=4, n=2)   # complete graph on 4 switches
        # Darken the express links (0,2) and (1,3) at t=0, then leave
        # wake decisions enabled but never darken anything new.
        topo = TopologyControlConfig(
            start_dark=(LinkClass.EXPRESS.value,),
            off_fraction=0.0, min_dwell_epochs=1000)
        controller = make_controller(net, topo=topo)
        assert len(controller._dark) == 2
        injector = LinkFaultInjector(net)
        # Cut both lit ring links at switch 0: its last usable path is
        # the cold express link (0, 2).
        injector.fail_link(5_000.0, 0, 1)
        injector.fail_link(5_000.0, 0, 3)
        net.run(until_ns=30_000.0)
        assert not net.switch_channel(0, 2).is_off
        assert controller.topology_ons >= 1
        assert injector.partitions == []
        assert len(switch_components(net)) == 1
        assert controller.guard.violations == 0

    def test_fault_dark_groups_are_not_claimed_as_topology_dark(self):
        net = make_network()
        controller = make_controller(net)
        injector = LinkFaultInjector(net)
        injector.fail_link(1_000.0, 0, 1)
        net.run(until_ns=5_000.0)
        group = next(g for g in controller._candidates()
                     if controller._endpoints[g.name] == (0, 1))
        assert controller._fault_dark(group)
        assert group.name not in controller._dark


class TestCrashInterop:
    def test_cold_restart_forgets_dark_claims(self):
        net = make_network()
        controller = make_controller(net)
        net.run(until_ns=40_000.0)
        assert len(controller._dark) > 0
        controller.cold_restart()
        # The stranded-dark-group hazard: channels stay off but the
        # replacement controller no longer claims them.
        assert controller._dark == set()
        assert any(ch.is_off for ch in net.tunable_channels())

    def test_release_gate_drops_the_claim_and_resets_dwell(self):
        net = make_network()
        controller = make_controller(net)
        net.run(until_ns=40_000.0)
        name = next(iter(sorted(controller._dark)))
        controller.release_gate(name)
        assert name not in controller._dark
        assert controller._dwell[name] == 0


class TestCandidatesFollowWrappers:
    def test_candidates_are_the_wrapped_groups_in_group_order(self):
        net = make_network()
        log = DecisionLog()
        controller = make_controller(net, log=log)
        raw = controller._candidates()
        assert raw

        def expected():
            return [g for g in controller.groups
                    if g.name in controller._endpoints]

        ControlPlaneChaos(controller, ControlFaultScenario(name="t"),
                          decision_log=log)
        chaos = controller._candidates()
        assert all(isinstance(g, ChaosGroup) for g in chaos)
        assert [id(g) for g in chaos] == [id(g) for g in expected()]
        assert [id(g.raw) for g in chaos] == [id(g) for g in raw]
        FailsafeGuard(controller, decision_log=log)
        guarded = controller._candidates()
        assert all(isinstance(g, GuardedGroup) for g in guarded)
        assert [id(g) for g in guarded] == [id(g) for g in expected()]
        assert [id(g._inner) for g in guarded] == [id(g) for g in chaos]


def scratch_lit(controller, switch=None):
    """Lit (not dark, not fault-dark) candidate links, rescanned."""
    links = []
    for group in controller.groups:
        link = controller._endpoints.get(group.name)
        if link is None or group.name in controller._dark:
            continue
        if any(ch.is_off or ch.draining for ch in group.channels):
            continue
        if switch is None or switch in link:
            links.append(link)
    return links


@st.composite
def topology_passes(draw):
    """A starting dark set, then per pass: channel faults/repairs and
    demand to inject before it."""
    start_dark = draw(st.lists(st.integers(0, 5), unique=True))
    passes = draw(st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 11),
                               st.sampled_from(["draining", "off",
                                                "repair"])),
                     max_size=4),
            st.dictionaries(
                st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
                    lambda pair: pair[0] != pair[1]),
                st.floats(0.0, 200.0), max_size=4)),
        min_size=1, max_size=12))
    topo = TopologyControlConfig(
        min_dwell_epochs=draw(st.integers(0, 2)),
        on_fraction=draw(st.sampled_from([-1.0, 0.05, 0.45])),
        off_fraction=draw(st.sampled_from([0.05, 10.0])),
        max_dark_fraction=draw(st.sampled_from([0.5, 1.0])))
    return topo, start_dark, passes


def run_checked_passes(topo, start_dark, passes):
    """Run topology passes on k=4 n=2, rescanning after every wake and
    power-off; returns the actions that ran inside a pass."""
    net = make_network(k=4, n=2)
    controller = make_controller(net, topo=topo)
    ladder = net.config.ladder
    in_pass = []

    def check():
        assert controller._usable_links() == set(scratch_lit(controller))
        for switch in range(net.topology.num_switches):
            lit = len(scratch_lit(controller, switch))
            want = (controller.demand.group_pressure(switch)
                    / (max(lit, 1) * ladder.max_rate))
            assert controller._pressure(switch, ladder) == want

    def checked(action):
        def run(group, *args, **kwargs):
            action(group, *args, **kwargs)
            if controller._in_pass:
                in_pass.append(action.__name__)
            check()
        return run

    controller._wake = checked(controller._wake)
    controller._power_off = checked(controller._power_off)
    candidates = controller._candidates()
    for index in start_dark:
        controller._power_off(candidates[index])
    channels = net.inter_switch_channels
    for epoch, (faults, flows) in enumerate(passes, start=1):
        for index, how in faults:
            channel = channels[index]
            if how == "draining":
                channel.draining = True
            elif how == "off":
                if not channel.is_off:
                    channel.power_off()
            else:
                channel.draining = False
                channel.state = ChannelState.ACTIVE
        controller.demand.observe(flows)
        net.run(until_ns=epoch * 1_000.0 + 500.0)
        check()
    return in_pass


class TestPassCaches:
    """The usable-link scan is reused within a topology pass; after
    each of the controller's own wakes and power-offs it must still
    equal a from-scratch rescan."""

    @given(topology_passes())
    @settings(max_examples=40, deadline=None)
    def test_usable_links_and_pressure_match_a_rescan(self, case):
        run_checked_passes(*case)

    def test_wakes_and_power_offs_run_inside_passes(self):
        topo = TopologyControlConfig(min_dwell_epochs=1, on_fraction=0.05)
        passes = [([], {}), ([], {}), ([(0, "off")], {(0, 1): 50.0}),
                  ([(0, "repair")], {(2, 3): 50.0}), ([], {}), ([], {})]
        in_pass = run_checked_passes(topo, [1], passes)
        assert "_wake" in in_pass and "_power_off" in in_pass


class TestRunnerIntegration:
    def test_demand_topo_spec_produces_a_topo_digest(self):
        from repro.experiments.cache import summary_digest
        from repro.experiments.runner import (
            SimulationSpec,
            run_simulation,
        )

        spec = SimulationSpec(k=4, n=2, workload="skewed",
                              duration_ns=100_000.0, seed=1,
                              control="demand_topo", policy="ladder")
        summary = run_simulation(spec)
        assert summary.topo is not None
        assert summary.topo["controller"] == "demand_topo"
        assert summary.topo["guard_violations"] == 0
        # The partition detector rides along even without a fault
        # scenario: zero partitions is a measured claim, not a vacuous
        # one.
        assert summary.faults is not None
        assert summary.faults["partitions"] == 0
        assert "topo" in summary_digest(summary)

    def test_degraded_topo_darkens_and_freezes(self):
        from repro.experiments.runner import (
            SimulationSpec,
            run_simulation,
        )

        summary = run_simulation(SimulationSpec(
            k=4, n=2, workload="skewed", duration_ns=100_000.0, seed=1,
            control="degraded_topo", policy="ladder"))
        topo = summary.topo
        assert topo["controller"] == "degraded_topo"
        assert topo["dark_final"] > 0
        # Frozen: nothing beyond the construction-time darkening.
        assert topo["topology_offs"] == topo["dark_final"]
        assert topo["topology_ons"] == 0

    def test_healthy_epoch_summary_has_no_topo_key(self):
        from repro.experiments.cache import summary_digest
        from repro.experiments.runner import (
            SimulationSpec,
            run_simulation,
        )

        digest = summary_digest(run_simulation(
            SimulationSpec(k=2, n=2, duration_ns=50_000.0)))
        assert "topo" not in digest

"""The Section 5.1 dynamic-topology controller."""

from dataclasses import replace

import pytest

from repro.core.dynamic_topology import (
    DynamicTopologyConfig,
    DynamicTopologyController,
    TopologyMode,
)
from repro.routing.restricted import RestrictedAdaptiveRouting
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.mesh_torus import LinkClass, link_class_counts
from repro.units import US


def powered_channels(net):
    return sum(1 for ch in net.inter_switch_channels if not ch.is_off)


def make_network(k=4, n=2, seed=9):
    return FbflyNetwork(FlattenedButterfly(k=k, n=n), NetworkConfig(seed=seed),
                        routing_factory=RestrictedAdaptiveRouting)


def pinned(mode):
    return DynamicTopologyConfig(upgrade_threshold=1.0,
                                 downgrade_threshold=0.0,
                                 congestion_bytes=float("inf"),
                                 start_mode=mode)


class TestConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DynamicTopologyConfig(upgrade_threshold=0.1,
                                  downgrade_threshold=0.2)

    def test_defaults_sane(self):
        config = DynamicTopologyConfig()
        assert config.downgrade_threshold < config.upgrade_threshold


class TestModeApplication:
    def test_fbfly_mode_keeps_everything_powered(self):
        net = make_network()
        DynamicTopologyController(net, pinned(TopologyMode.FBFLY))
        assert powered_channels(net) == len(net.inter_switch_channels)

    def test_mesh_mode_powers_off_express_and_wrap(self):
        net = make_network()
        DynamicTopologyController(net, pinned(TopologyMode.MESH))
        counts = link_class_counts(net.topology)
        expected_on = 2 * counts[LinkClass.MESH]
        assert powered_channels(net) == expected_on

    def test_torus_mode_keeps_wraps(self):
        net = make_network()
        DynamicTopologyController(net, pinned(TopologyMode.TORUS))
        counts = link_class_counts(net.topology)
        expected_on = 2 * (counts[LinkClass.MESH]
                           + counts[LinkClass.TORUS_WRAP])
        assert powered_channels(net) == expected_on

    def test_host_links_never_touched(self):
        net = make_network()
        DynamicTopologyController(net, pinned(TopologyMode.MESH))
        assert all(not ch.is_off for ch in net.host_up)
        assert all(not ch.is_off for ch in net.host_down)


class TestDelivery:
    @pytest.mark.parametrize("mode", list(TopologyMode))
    def test_traffic_delivered_in_every_mode(self, mode):
        net = make_network()
        DynamicTopologyController(net, pinned(mode))
        n = net.topology.num_hosts
        for i in range(30):
            net.submit(i * 100.0, src=i % n, dst=(i + 7) % n,
                       size_bytes=2048)
        stats = net.run()
        assert stats.delivered_fraction() == pytest.approx(1.0)


class TestAdaptation:
    def test_load_upgrades_mode(self):
        net = make_network()
        config = DynamicTopologyConfig(
            epoch_ns=20.0 * US, upgrade_threshold=0.1,
            downgrade_threshold=0.02, start_mode=TopologyMode.MESH)
        ctrl = DynamicTopologyController(net, config)
        n = net.topology.num_hosts
        # Heavy sustained load.
        t = 0.0
        for i in range(2000):
            net.submit(t, src=i % n, dst=(i + 5) % n, size_bytes=8192)
            t += 250.0
        net.run(until_ns=600.0 * US)
        assert ctrl.mode > TopologyMode.MESH
        assert len(ctrl.mode_history) >= 2

    def test_idle_downgrades_mode(self):
        net = make_network()
        config = DynamicTopologyConfig(
            epoch_ns=20.0 * US, upgrade_threshold=0.5,
            downgrade_threshold=0.1, start_mode=TopologyMode.FBFLY)
        ctrl = DynamicTopologyController(net, config)
        net.run(until_ns=200.0 * US)   # no traffic at all
        assert ctrl.mode is TopologyMode.MESH

    def test_draining_channels_power_off_eventually(self):
        net = make_network()
        config = DynamicTopologyConfig(
            epoch_ns=20.0 * US, upgrade_threshold=0.9,
            downgrade_threshold=0.05, start_mode=TopologyMode.FBFLY)
        DynamicTopologyController(net, config)
        net.run(until_ns=400.0 * US)
        counts = link_class_counts(net.topology)
        assert powered_channels(net) == 2 * counts[LinkClass.MESH]

    def test_stop_freezes_mode(self):
        net = make_network()
        config = DynamicTopologyConfig(
            epoch_ns=20.0 * US, upgrade_threshold=0.5,
            downgrade_threshold=0.1, start_mode=TopologyMode.FBFLY)
        ctrl = DynamicTopologyController(net, config)
        net.run(until_ns=25.0 * US)
        ctrl.stop()
        mode = ctrl.mode
        net.run(until_ns=300.0 * US)
        assert ctrl.mode is mode


class TestAccounting:
    def test_off_time_recorded_per_channel(self):
        net = make_network()
        DynamicTopologyController(net, pinned(TopologyMode.MESH))
        stats = net.run(until_ns=100.0 * US)
        off_time = sum(ch.time_at_rate.get(None, 0.0)
                       for ch in stats.channels)
        assert off_time > 0.0

    def test_mode_history_starts_with_initial_mode(self):
        net = make_network()
        ctrl = DynamicTopologyController(net, pinned(TopologyMode.TORUS))
        assert ctrl.mode_history[0] == (0.0, TopologyMode.TORUS)


class TestDecisionAudit:
    """Mode transitions route through the decision log (satellite:
    degrade decisions used to be invisible to the audit)."""

    def test_mode_transitions_are_logged_per_link_class(self):
        from repro.obs.decisions import (
            DecisionLog,
            TOPOLOGY_OFF,
            TOPOLOGY_ON,
        )

        net = make_network()
        log = DecisionLog(max_records=None)
        ctrl = DynamicTopologyController(
            net, pinned(TopologyMode.FBFLY), decision_log=log)
        ctrl._set_mode(TopologyMode.MESH)
        offs = [d for d in log.records if d.reason == TOPOLOGY_OFF]
        # FBFLY -> MESH darkens both non-mesh classes.
        assert {d.group for d in offs} == {
            LinkClass.TORUS_WRAP.value, LinkClass.EXPRESS.value}
        for d in offs:
            assert d.changed is False
            assert d.new_rate is None
            assert d.channels
        ctrl._set_mode(TopologyMode.FBFLY)
        ons = [d for d in log.records if d.reason == TOPOLOGY_ON]
        assert {d.group for d in ons} == {
            LinkClass.TORUS_WRAP.value, LinkClass.EXPRESS.value}

    def test_no_log_records_without_a_transition(self):
        from repro.obs.decisions import DecisionLog

        net = make_network()
        log = DecisionLog(max_records=None)
        ctrl = DynamicTopologyController(
            net, pinned(TopologyMode.FBFLY), decision_log=log)
        ctrl._set_mode(TopologyMode.FBFLY)   # no-op re-entry
        assert not log.records

    def test_experiment_points_carry_decision_counts(self):
        from repro.experiments.runner import SimulationSpec, run_simulation
        from repro.experiments.scale import SCALES

        small = SCALES["small"]
        spec = SimulationSpec(k=small.k, n=small.n, workload="uniform",
                              uniform_offered_load=0.05,
                              duration_ns=small.duration_ns,
                              control="topology_mesh")
        # A pinned config applies its mode at construction — it never
        # *transitions*, so the audit stays silent on topology.
        static = run_simulation(spec)
        assert static.decision_counts is not None
        assert "topology_off" not in static.decision_counts
        # A dynamic run starting from the mesh under heavy load
        # upgrades, and those powerings-on land in the decision counts.
        dynamic = run_simulation(replace(spec, control="dynamic_topology",
                                         uniform_offered_load=0.3))
        assert dynamic.decision_counts.get("topology_on", 0) > 0

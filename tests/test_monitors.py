"""The power time-series monitor."""

import pytest

from repro.core.controller import ControllerConfig, EpochController
from repro.power.channel_models import MeasuredChannelPower
from repro.sim.monitors import PowerMonitor
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import MS, US


def make_network(seed=19):
    return FbflyNetwork(FlattenedButterfly(k=2, n=3),
                        NetworkConfig(seed=seed))


class TestPowerMonitor:
    def test_baseline_power_is_unity(self):
        net = make_network()
        monitor = PowerMonitor(net, period_ns=10.0 * US)
        net.submit(0.0, 0, 7, 50_000)
        net.run(until_ns=0.2 * MS)
        assert monitor.samples
        assert all(p == pytest.approx(1.0)
                   for p in monitor.power_fractions)

    def test_power_descends_under_controller(self):
        net = make_network()
        EpochController(net, config=ControllerConfig())
        # Sample faster than the 10 us control epoch so the first sample
        # still sees the full-rate configuration.
        monitor = PowerMonitor(net, model=MeasuredChannelPower(),
                               period_ns=4.0 * US)
        net.run(until_ns=0.3 * MS)   # idle: everything detunes
        assert monitor.peak() == pytest.approx(1.0, abs=0.05)
        assert min(monitor.power_fractions) == pytest.approx(0.42, abs=0.02)
        # Monotone non-increasing descent on an idle network.
        powers = monitor.power_fractions
        assert all(a >= b - 1e-9 for a, b in zip(powers, powers[1:]))

    def test_monitor_does_not_keep_simulation_alive(self):
        net = make_network()
        PowerMonitor(net, period_ns=10.0 * US)
        net.submit(0.0, 0, 7, 1000)
        net.run()   # must terminate despite the periodic monitor
        assert net.stats.messages_delivered == 1

    def test_channel_subset(self):
        net = make_network()
        monitor = PowerMonitor(net, channels=net.inter_switch_channels,
                               period_ns=10.0 * US)
        net.run(until_ns=50.0 * US)
        assert len(monitor.channels) == len(net.inter_switch_channels)

    def test_validation(self):
        net = make_network()
        with pytest.raises(ValueError):
            PowerMonitor(net, period_ns=0.0)
        with pytest.raises(ValueError):
            PowerMonitor(net, channels=[])


class TestUnobservedGuard:
    """Monitors refuse to answer for a run that never happened (S2)."""

    def test_power_monitor_raises_on_never_run_network(self):
        net = make_network()
        monitor = PowerMonitor(net, period_ns=10.0 * US)
        with pytest.raises(RuntimeError, match="never ran.*cach"):
            monitor.peak()

    def test_short_run_without_samples_still_answers(self):
        # A live run shorter than one sampling period has no samples
        # but did fire events; that is legitimate, not a cache hit.
        net = make_network()
        monitor = PowerMonitor(net, period_ns=1.0 * MS)
        net.submit(0.0, 0, 7, 2_000)
        net.run(until_ns=50.0 * US)
        assert net.sim.events_fired > 0
        assert monitor.peak() == 0.0

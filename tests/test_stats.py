"""Statistics layer: channel accounting and network aggregation."""

import pytest

from repro.power.channel_models import IdealChannelPower, MeasuredChannelPower
from repro.sim.stats import ChannelStats, NetworkStats, _RunningStats


def make_channel_stats(name="ch", rate=40.0, start=0.0):
    return ChannelStats(name=name, initial_rate=rate, start_time=start)


class _AlwaysOn:
    """A channel with no dynamic range: full power at every rate."""

    def power(self, rate_gbps):
        return 1.0


class TestChannelStats:
    def test_time_at_rate_sums_to_duration(self):
        stats = make_channel_stats()
        stats.account_rate_change(100.0, 20.0)
        stats.account_rate_change(250.0, 2.5)
        stats.finalize(1000.0)
        assert sum(stats.time_at_rate.values()) == pytest.approx(1000.0)

    def test_windows_attributed_to_correct_rates(self):
        stats = make_channel_stats()
        stats.account_rate_change(100.0, 20.0)
        stats.finalize(300.0)
        assert stats.time_at_rate[40.0] == pytest.approx(100.0)
        assert stats.time_at_rate[20.0] == pytest.approx(200.0)

    def test_finalize_idempotent(self):
        stats = make_channel_stats()
        stats.finalize(500.0)
        stats.finalize(500.0)
        assert stats.time_at_rate[40.0] == pytest.approx(500.0)

    def test_time_cannot_go_backwards(self):
        stats = make_channel_stats()
        stats.account_rate_change(100.0, 20.0)
        with pytest.raises(ValueError):
            stats.account_rate_change(50.0, 10.0)

    def test_energy_under_constant_model(self):
        stats = make_channel_stats()
        stats.finalize(1000.0)
        assert stats.energy(_AlwaysOn()) == pytest.approx(1000.0)

    def test_energy_under_ideal_model(self):
        stats = make_channel_stats(rate=2.5)
        stats.finalize(1000.0)
        assert stats.energy(IdealChannelPower()) == pytest.approx(62.5)

    def test_off_time_uses_off_power(self):
        stats = make_channel_stats()
        stats.account_rate_change(500.0, None)
        stats.finalize(1000.0)
        assert stats.energy(IdealChannelPower(), off_power=0.0) == \
            pytest.approx(500.0)
        assert stats.energy(IdealChannelPower(), off_power=0.36) == \
            pytest.approx(500.0 + 0.36 * 500.0)

    def test_utilization(self):
        stats = make_channel_stats()
        stats.busy_ns = 250.0
        assert stats.utilization(1000.0) == pytest.approx(0.25)

    def test_utilization_needs_positive_duration(self):
        with pytest.raises(ValueError):
            make_channel_stats().utilization(0.0)


class TestRunningStats:
    def test_mean_and_max(self):
        rs = _RunningStats()
        for v in (1.0, 2.0, 3.0, 10.0):
            rs.add(v)
        assert rs.mean == pytest.approx(4.0)
        assert rs.maximum == 10.0
        assert rs.count == 4

    def test_empty(self):
        rs = _RunningStats()
        assert rs.mean == 0.0
        assert rs.percentile(99) == 0.0

    def test_percentiles(self):
        rs = _RunningStats()
        for v in range(1, 101):
            rs.add(float(v))
        assert rs.percentile(0) == 1.0
        assert rs.percentile(100) == 100.0
        assert rs.percentile(50) == pytest.approx(50.5)

    def test_percentile_out_of_range(self):
        rs = _RunningStats()
        rs.add(1.0)
        with pytest.raises(ValueError):
            rs.percentile(101)

    def test_no_samples_kept_when_disabled(self):
        rs = _RunningStats(keep_samples=False)
        rs.add(5.0)
        assert rs.samples == []
        assert rs.mean == 5.0


class TestNetworkStats:
    def make_network_stats(self, channel_rates, duration=1000.0):
        stats = NetworkStats()
        for i, rate in enumerate(channel_rates):
            stats.register_channel(make_channel_stats(f"ch{i}", rate))
        stats.finalize(duration)
        return stats

    def test_power_fraction_all_full_rate(self):
        stats = self.make_network_stats([40.0, 40.0])
        assert stats.power_fraction(MeasuredChannelPower()) == \
            pytest.approx(1.0)

    def test_power_fraction_all_slowest(self):
        stats = self.make_network_stats([2.5, 2.5, 2.5])
        assert stats.power_fraction(MeasuredChannelPower()) == \
            pytest.approx(0.42)
        assert stats.power_fraction(IdealChannelPower()) == \
            pytest.approx(0.0625)

    def test_power_fraction_mixed(self):
        stats = self.make_network_stats([40.0, 2.5])
        assert stats.power_fraction(IdealChannelPower()) == \
            pytest.approx((1.0 + 0.0625) / 2)

    def test_average_utilization(self):
        stats = NetworkStats()
        a, b = make_channel_stats("a"), make_channel_stats("b")
        a.busy_ns, b.busy_ns = 100.0, 300.0
        stats.register_channel(a)
        stats.register_channel(b)
        stats.finalize(1000.0)
        assert stats.average_utilization() == pytest.approx(0.2)

    def test_time_at_rate_fractions_normalized(self):
        stats = self.make_network_stats([40.0, 2.5, 2.5, 2.5])
        fractions = stats.time_at_rate_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions[2.5] == pytest.approx(0.75)

    def test_duration_requires_finalize(self):
        stats = NetworkStats()
        with pytest.raises(RuntimeError):
            stats.duration_ns

    def test_delivered_fraction(self):
        stats = NetworkStats()
        stats.record_injection(1000)
        stats.record_packet_delivery(10.0, 600)
        stats.finalize(1.0)
        assert stats.delivered_fraction() == pytest.approx(0.6)

    def test_delivered_fraction_with_no_traffic(self):
        stats = NetworkStats()
        stats.finalize(1.0)
        assert stats.delivered_fraction() == 1.0

    def test_message_latency_recorded(self):
        stats = NetworkStats()
        stats.record_message_delivery(100.0)
        stats.record_message_delivery(300.0)
        assert stats.mean_message_latency_ns() == pytest.approx(200.0)
        assert stats.messages_delivered == 2

    def test_channel_subset_power(self):
        stats = NetworkStats()
        fast = make_channel_stats("fast", 40.0)
        slow = make_channel_stats("slow", 2.5)
        stats.register_channel(fast)
        stats.register_channel(slow)
        stats.finalize(100.0)
        assert stats.power_fraction(IdealChannelPower(), channels=[slow]) == \
            pytest.approx(0.0625)

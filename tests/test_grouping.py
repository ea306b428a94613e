"""Control groups: independent channels vs link pairs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grouping import ChannelGroup, independent_groups, paired_groups
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly


@pytest.fixture
def network():
    return FbflyNetwork(FlattenedButterfly(k=2, n=3), NetworkConfig(seed=2))


class TestGroupBuilders:
    def test_independent_one_group_per_channel(self, network):
        groups = independent_groups(network)
        assert len(groups) == len(network.tunable_channels())
        assert all(len(g.channels) == 1 for g in groups)

    def test_paired_two_channels_per_group(self, network):
        groups = paired_groups(network)
        assert all(len(g.channels) == 2 for g in groups)
        assert len(groups) == len(network.tunable_channels()) // 2

    def test_paired_groups_are_true_pairs(self, network):
        for group in paired_groups(network):
            a, b = group.channels
            # One direction's source is the other's destination.
            assert a.dst is b.src or b.dst is a.src or \
                (a.src is b.dst and b.src is a.dst)

    def test_every_channel_in_exactly_one_group(self, network):
        for builder in (independent_groups, paired_groups):
            seen = []
            for group in builder(network):
                seen.extend(ch.name for ch in group.channels)
            assert sorted(seen) == sorted(
                ch.name for ch in network.tunable_channels())


class TestChannelGroup:
    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ChannelGroup("empty", [])

    def test_utilization_is_max_over_members(self, network):
        fwd, rev = network.link_pairs()[0]
        group = ChannelGroup("pair", [fwd, rev])
        fwd.stats.busy_ns = 600.0
        rev.stats.busy_ns = 100.0
        assert group.utilization_since_last(1000.0) == pytest.approx(0.6)

    def test_utilization_is_delta_since_last_call(self, network):
        fwd, rev = network.link_pairs()[0]
        group = ChannelGroup("pair", [fwd, rev])
        fwd.stats.busy_ns = 500.0
        assert group.utilization_since_last(1000.0) == pytest.approx(0.5)
        # No new busy time -> zero utilization in the next epoch.
        assert group.utilization_since_last(1000.0) == 0.0

    def test_set_rate_applies_to_all_members(self, network):
        fwd, rev = network.link_pairs()[0]
        group = ChannelGroup("pair", [fwd, rev])
        assert group.set_rate(10.0, reactivation_ns=0.0) is True
        assert fwd.rate_gbps == 10.0
        assert rev.rate_gbps == 10.0

    def test_set_rate_reports_noop(self, network):
        fwd, rev = network.link_pairs()[0]
        group = ChannelGroup("pair", [fwd, rev])
        assert group.set_rate(40.0, reactivation_ns=0.0) is False

    def test_group_is_off_when_any_member_off(self, network):
        fwd, rev = network.link_pairs()[0]
        group = ChannelGroup("pair", [fwd, rev])
        assert not group.is_off
        fwd.power_off()
        assert group.is_off

    def test_epoch_must_be_positive(self, network):
        fwd, _ = network.link_pairs()[0]
        group = ChannelGroup("solo", [fwd])
        with pytest.raises(ValueError):
            group.utilization_since_last(0.0)


class TestReadsMatchMax:
    """The reads' compare loops return what ``max()`` over the members
    returns, bit for bit (the first maximum, ties included)."""

    @settings(max_examples=200, deadline=None)
    @given(members=st.integers(1, 4),
           epochs=st.lists(st.lists(
               st.tuples(st.floats(0.0, 5000.0), st.integers(0, 65536)),
               min_size=4, max_size=4), min_size=1, max_size=4),
           epoch_ns=st.sampled_from([1000.0, 333.0, 1e-3]))
    def test_reads_equal_the_max_reference(self, members, epochs,
                                           epoch_ns):
        network = FbflyNetwork(FlattenedButterfly(k=2, n=3),
                               NetworkConfig(seed=2))
        channels = network.tunable_channels()[:members]
        group = ChannelGroup("g", channels)
        last = {ch: ch.busy_ns() for ch in channels}
        for samples in epochs:
            for ch, (busy_delta, queued) in zip(channels, samples):
                ch.stats.busy_ns += busy_delta
                ch._queue_bytes = queued
            expected_util = 0.0
            for ch in channels:
                expected_util = max(expected_util,
                                    (ch.busy_ns() - last[ch]) / epoch_ns)
                last[ch] = ch.busy_ns()
            expected_queue = max(ch.queue_bytes / ch.queue_capacity_bytes
                                 for ch in channels)
            assert group.utilization_since_last(epoch_ns) == expected_util
            assert group.max_queue_fraction() == expected_queue
            assert group.is_off is any(ch.is_off for ch in channels)
            assert group.current_rate == channels[0].rate_gbps

    def test_set_rate_skips_powered_off_members(self, network):
        fwd, rev = network.link_pairs()[0]
        group = ChannelGroup("pair", [fwd, rev])
        rev.power_off()
        assert group.set_rate(10.0, reactivation_ns=0.0) is True
        assert fwd.rate_gbps == 10.0
        assert rev.is_off

"""Property-based tests: engine, ladder, packets, policies, stats."""

from hypothesis import example, given, settings, strategies as st

from repro.core.policies import (
    AggressivePolicy,
    DemandLadderPolicy,
    HysteresisPolicy,
    PredictivePolicy,
    ThresholdPolicy,
)
from repro.power.channel_models import IdealChannelPower, MeasuredChannelPower
from repro.power.link_rates import DEFAULT_RATE_LADDER, RateLadder
from repro.sim.engine import Simulator
from repro.sim.packet import Message
from repro.sim.stats import ChannelStats


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_events_always_fire_in_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_cancellation_removes_exactly_those_events(self, delays, data):
        sim = Simulator()
        fired = []
        events = [sim.schedule(d, fired.append, i)
                  for i, d in enumerate(delays)]
        to_cancel = data.draw(st.sets(
            st.integers(0, len(events) - 1), max_size=len(events)))
        for i in to_cancel:
            events[i].cancel()
        sim.run()
        assert sorted(fired) == sorted(
            set(range(len(delays))) - to_cancel)


class TestLadderProperties:
    rates = st.lists(st.sampled_from(
        [0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 25.0, 40.0, 100.0]),
        min_size=1, max_size=6, unique=True)

    @given(rates, st.data())
    @settings(max_examples=60, deadline=None)
    def test_steps_stay_on_ladder(self, rates, data):
        ladder = RateLadder(rates)
        rate = data.draw(st.sampled_from(sorted(rates)))
        assert ladder.step_up(rate) in ladder
        assert ladder.step_down(rate) in ladder

    @given(rates, st.data())
    @settings(max_examples=60, deadline=None)
    def test_step_directions(self, rates, data):
        ladder = RateLadder(rates)
        rate = data.draw(st.sampled_from(sorted(rates)))
        assert ladder.step_up(rate) >= rate
        assert ladder.step_down(rate) <= rate

    @given(rates, st.floats(min_value=0.0, max_value=250.0,
                            allow_nan=False),
           st.sampled_from([0.5, 0.6, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_slowest_covering_matches_the_ladder_loop(self, rates, demand,
                                                      target):
        # The loop DemandLadderPolicy, PredictivePolicy, the oracle and
        # the service each used to carry.
        ladder = RateLadder(rates)
        expected = ladder.max_rate
        for rate in ladder.rates:
            if demand <= target * rate:
                expected = rate
                break
        assert ladder.slowest_covering(demand, target) == expected
        if target == 1.0:
            assert ladder.slowest_covering(demand) == expected

    @given(rates, st.floats(min_value=0.1, max_value=200.0,
                            allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_clamp_never_exceeds_request_unless_below_min(self, rates, rate):
        ladder = RateLadder(rates)
        clamped = ladder.clamp(rate)
        assert clamped in ladder
        if rate >= ladder.min_rate:
            assert clamped <= rate


class TestPacketProperties:
    # Draw the packet count, not the size: one example then builds at
    # most 10^4 packets, while sizes still reach 9 * 10^7 bytes.
    @given(st.integers(min_value=1, max_value=10_000),
           st.integers(min_value=1, max_value=9000),
           st.integers(min_value=0, max_value=8999))
    @example(count=10_000, mtu=9000, short=0)   # above 10^7 bytes
    @example(count=10_000, mtu=1, short=0)      # MTU 1
    @settings(max_examples=80, deadline=None)
    def test_packetize_conserves_bytes(self, count, mtu, short):
        size = count * mtu - short % mtu
        msg = Message(0, 1, size, 0.0)
        packets = msg.packetize(mtu)
        assert sum(p.size_bytes for p in packets) == size
        assert all(0 < p.size_bytes <= mtu for p in packets)
        assert len(packets) == -(-size // mtu)   # ceil division
        assert msg.packets_total == len(packets)


class TestPolicyProperties:
    policies = st.sampled_from([
        ThresholdPolicy(0.25), ThresholdPolicy(0.5), ThresholdPolicy(0.75),
        HysteresisPolicy(0.2, 0.8),
        AggressivePolicy(0.5),
        DemandLadderPolicy(0.5),
        PredictivePolicy(0.5),
    ])

    @given(policies,
           st.sampled_from(DEFAULT_RATE_LADDER.rates),
           st.floats(min_value=0.0, max_value=1.2, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_decision_always_on_ladder(self, policy, rate, util):
        decided = policy.decide("g", rate, util, DEFAULT_RATE_LADDER)
        assert decided in DEFAULT_RATE_LADDER

    @given(st.sampled_from(DEFAULT_RATE_LADDER.rates),
           st.floats(min_value=0.0, max_value=1.2, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_threshold_moves_at_most_one_step(self, rate, util):
        policy = ThresholdPolicy(0.5)
        decided = policy.decide("g", rate, util, DEFAULT_RATE_LADDER)
        i, j = (DEFAULT_RATE_LADDER.index(rate),
                DEFAULT_RATE_LADDER.index(decided))
        assert abs(i - j) <= 1


class TestChannelStatsProperties:
    @given(st.lists(st.tuples(
        st.floats(min_value=0.1, max_value=10_000.0, allow_nan=False),
        st.sampled_from(DEFAULT_RATE_LADDER.rates)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_time_windows_partition_duration(self, changes):
        stats = ChannelStats(name="p", initial_rate=40.0)
        now = 0.0
        for gap, rate in changes:
            now += gap
            stats.account_rate_change(now, rate)
        stats.finalize(now + 5.0)
        assert sum(stats.time_at_rate.values()) == \
            __import__("pytest").approx(now + 5.0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.1, max_value=10_000.0, allow_nan=False),
        st.sampled_from(DEFAULT_RATE_LADDER.rates)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_energy_bounded_by_model_extremes(self, changes):
        stats = ChannelStats(name="p", initial_rate=40.0)
        now = 0.0
        for gap, rate in changes:
            now += gap
            stats.account_rate_change(now, rate)
        total = now + 5.0
        stats.finalize(total)
        for model in (MeasuredChannelPower(), IdealChannelPower()):
            energy = stats.energy(model)
            assert model.power(2.5) * total <= energy <= \
                model.power(40.0) * total * (1 + 1e-9)

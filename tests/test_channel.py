"""Plesiochronous channel behaviour: serialization, credits, rate changes."""

import pytest

from repro.power.link_rates import DEFAULT_RATE_LADDER
from repro.sim.channel import Channel, ChannelState
from repro.sim.engine import Simulator
from repro.sim.packet import Message
from repro.units import serialization_ns


class SinkNode:
    """A receive-everything endpoint that returns credits immediately."""

    def __init__(self, auto_credit: bool = True):
        self.received = []
        self.auto_credit = auto_credit

    def receive(self, packet, channel):
        self.received.append((channel.sim.now, packet))
        if self.auto_credit:
            channel.release_credits(packet.size_bytes)

    def on_output_space(self, channel):
        pass


def make_channel(sim, sink=None, **kwargs):
    sink = sink if sink is not None else SinkNode()
    defaults = dict(propagation_ns=10.0, queue_capacity_bytes=10_000,
                    credit_bytes=10_000)
    defaults.update(kwargs)
    channel = Channel(sim, "test", sink, **defaults)
    return channel, sink


def packet(size=1000, src=0, dst=1):
    return Message(src, dst, size, 0.0).packetize(size)[0]


class TestTransmission:
    def test_delivery_time_is_serialization_plus_propagation(self):
        sim = Simulator()
        channel, sink = make_channel(sim)
        channel.enqueue(packet(1000))   # 1000 B at 5 B/ns = 200 ns
        sim.run()
        arrival, _ = sink.received[0]
        assert arrival == pytest.approx(200.0 + 10.0)

    def test_packets_deliver_in_fifo_order(self):
        sim = Simulator()
        channel, sink = make_channel(sim)
        first, second = packet(1000), packet(500)
        channel.enqueue(first)
        channel.enqueue(second)
        sim.run()
        assert [p for _, p in sink.received] == [first, second]

    def test_back_to_back_serialization(self):
        sim = Simulator()
        channel, sink = make_channel(sim)
        channel.enqueue(packet(1000))
        channel.enqueue(packet(1000))
        sim.run()
        times = [t for t, _ in sink.received]
        assert times[1] - times[0] == pytest.approx(200.0)

    @pytest.mark.parametrize("how", ["initial", "set_rate", "power_on"])
    def test_serialization_follows_every_rate_change(self, how):
        # The channel keeps the rate in bytes per ns beside the rate;
        # each way of changing the rate must keep the two in step, to
        # the bit.
        for rate in DEFAULT_RATE_LADDER.rates:
            sim = Simulator()
            if how == "initial":
                channel, sink = make_channel(sim, rate_gbps=rate)
            else:
                start = 2.5 if rate != 2.5 else 40.0
                channel, sink = make_channel(sim, rate_gbps=start)
                if how == "set_rate":
                    channel.set_rate(rate, reactivation_ns=0.0)
                else:
                    channel.power_off()
                    channel.power_on(reactivation_ns=0.0, rate_gbps=rate)
                    sim.run()
            begin = sim.now
            channel.enqueue(packet(1500))
            sim.run()
            assert sink.received[0][0] - begin == (
                serialization_ns(1500, rate) + 10.0)

    def test_lower_rate_serializes_slower(self):
        sim = Simulator()
        channel, sink = make_channel(sim, rate_gbps=2.5)
        channel.enqueue(packet(1000))   # 1000 B at 0.3125 B/ns = 3200 ns
        sim.run()
        arrival, _ = sink.received[0]
        assert arrival == pytest.approx(3200.0 + 10.0)

    def test_bytes_and_packets_counted(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.enqueue(packet(1000))
        channel.enqueue(packet(234))
        sim.run()
        assert channel.stats.bytes_sent == 1234
        assert channel.stats.packets_sent == 2

    def test_busy_time_accumulates(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.enqueue(packet(1000))
        sim.run()
        assert channel.stats.busy_ns == pytest.approx(200.0)

    def test_busy_ns_includes_in_flight(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.enqueue(packet(1000))
        sim.run(until_ns=100.0)   # halfway through serialization
        assert channel.busy_ns() == pytest.approx(100.0)


class TestQueue:
    def test_queue_accounting(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.enqueue(packet(1000))   # starts transmitting immediately
        channel.enqueue(packet(500))
        assert channel.queue_bytes == 500
        assert channel.queue_packets == 1

    def test_can_enqueue_respects_capacity(self):
        sim = Simulator()
        channel, _ = make_channel(sim, queue_capacity_bytes=1000,
                                  credit_bytes=100)
        # Credits too small to transmit, so packets stay queued.
        assert channel.can_enqueue(600)
        channel.enqueue(packet(600))
        assert not channel.can_enqueue(600)
        with pytest.raises(RuntimeError):
            channel.enqueue(packet(600))

    def test_force_enqueue_bypasses_capacity(self):
        sim = Simulator()
        channel, _ = make_channel(sim, queue_capacity_bytes=100,
                                  credit_bytes=10)
        channel.enqueue(packet(90))
        channel.enqueue(packet(90), force=True)
        assert channel.queue_packets == 2


class TestCredits:
    def test_transmission_blocked_without_credits(self):
        sim = Simulator()
        channel, sink = make_channel(sim, credit_bytes=500)
        channel.enqueue(packet(1000))
        sim.run()
        assert sink.received == []
        assert channel.stats.credit_stalls > 0

    def test_credits_consumed_and_returned(self):
        sim = Simulator()
        channel, _ = make_channel(sim, credit_bytes=1000)
        channel.enqueue(packet(1000))
        assert channel.credits == 0
        sim.run()
        # Sink returned them (after the reverse propagation delay).
        assert channel.credits == 1000

    def test_credit_return_unblocks_next_packet(self):
        sim = Simulator()
        channel, sink = make_channel(sim, credit_bytes=1000)
        channel.enqueue(packet(1000))
        channel.enqueue(packet(1000))
        sim.run()
        assert len(sink.received) == 2

    def test_credit_overflow_detected(self):
        sim = Simulator()
        channel, _ = make_channel(sim, credit_bytes=100)
        channel.release_credits(200)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_no_credit_return_stalls_channel_forever(self):
        sim = Simulator()
        sink = SinkNode(auto_credit=False)
        channel, _ = make_channel(sim, sink=sink, credit_bytes=1000)
        channel.enqueue(packet(800))
        channel.enqueue(packet(800))
        sim.run()
        assert len(sink.received) == 1   # second packet starved


class TestRateChanges:
    def test_same_rate_is_noop(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        assert channel.set_rate(40.0, reactivation_ns=1000) is False
        assert channel.state is ChannelState.ACTIVE

    def test_rate_not_on_ladder_rejected(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        with pytest.raises(ValueError):
            channel.set_rate(13.0, reactivation_ns=0)

    def test_reactivation_stalls_transmission(self):
        sim = Simulator()
        channel, sink = make_channel(sim)
        assert channel.set_rate(20.0, reactivation_ns=500) is True
        assert channel.state is ChannelState.REACTIVATING
        channel.enqueue(packet(1000))
        sim.run()
        arrival, _ = sink.received[0]
        # 500 ns stall + 1000 B at 2.5 B/ns + 10 ns propagation.
        assert arrival == pytest.approx(500.0 + 400.0 + 10.0)

    def test_rate_change_waits_for_inflight_packet(self):
        sim = Simulator()
        channel, sink = make_channel(sim)
        channel.enqueue(packet(1000))          # finishes at t=200
        sim.run(until_ns=50.0)
        channel.set_rate(20.0, reactivation_ns=100)
        assert channel.rate_gbps == 40.0       # not yet applied
        sim.run()
        assert channel.rate_gbps == 20.0
        arrival, _ = sink.received[0]
        assert arrival == pytest.approx(210.0)  # old packet unaffected

    def test_reconfigure_while_reactivating_applies_latest(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.set_rate(20.0, reactivation_ns=500)
        sim.run(until_ns=100.0)
        channel.set_rate(5.0, reactivation_ns=500)
        sim.run()
        assert channel.rate_gbps == 5.0
        assert channel.state is ChannelState.ACTIVE

    def test_zero_reactivation_is_instant(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.set_rate(10.0, reactivation_ns=0.0)
        assert channel.state is ChannelState.ACTIVE
        assert channel.rate_gbps == 10.0

    def test_reactivation_counted(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.set_rate(20.0, reactivation_ns=100)
        sim.run()
        channel.set_rate(10.0, reactivation_ns=100)
        sim.run()
        assert channel.stats.reactivations == 2
        assert channel.stats.reactivation_ns_total == pytest.approx(200.0)



def reconfiguration_state(channel):
    """Everything a rejected reconfiguration must leave untouched."""
    return (channel.rate_gbps, channel.state, channel._pending_rate,
            channel._pending_mode, channel._pending_reactivation_ns,
            channel._react_token, channel.stats.reactivations,
            channel.stats.reactivation_ns_total, channel.sim.pending_events)


BAD_REACTIVATIONS = [-1.0, float("nan")]


class TestReactivationValidation:
    """A negative or NaN stall fails at the call, before any state
    changes — not later, inside the engine or a completion callback."""

    @pytest.mark.parametrize("reactivation_ns", BAD_REACTIVATIONS)
    @pytest.mark.parametrize("busy", [False, True])
    def test_set_rate_rejects(self, reactivation_ns, busy):
        sim = Simulator()
        channel, sink = make_channel(sim)
        if busy:
            channel.enqueue(packet(1000))   # serializing until t=200
            sim.run(until_ns=50.0)
        before = reconfiguration_state(channel)
        with pytest.raises(ValueError, match="reactivation_ns"):
            channel.set_rate(20.0, reactivation_ns=reactivation_ns)
        assert reconfiguration_state(channel) == before
        sim.run()
        assert channel.rate_gbps == 40.0
        assert channel.state is ChannelState.ACTIVE
        assert len(sink.received) == (1 if busy else 0)

    @pytest.mark.parametrize("reactivation_ns", BAD_REACTIVATIONS)
    @pytest.mark.parametrize("busy", [False, True])
    def test_power_on_rejects(self, reactivation_ns, busy):
        sim = Simulator()
        channel, _ = make_channel(sim)
        if busy:
            channel.enqueue(packet(1000))
            sim.run(until_ns=50.0)
        else:
            channel.power_off()
        before = reconfiguration_state(channel)
        with pytest.raises(ValueError, match="reactivation_ns"):
            channel.power_on(reactivation_ns=reactivation_ns,
                             rate_gbps=20.0)
        assert reconfiguration_state(channel) == before

    @pytest.mark.parametrize("reconfigure", ["set_rate", "power_on"])
    def test_stall_lands_at_now_plus_reactivation(self, reconfigure):
        sim = Simulator()
        channel, _ = make_channel(sim)
        sim.run(until_ns=30.0)
        if reconfigure == "set_rate":
            channel.set_rate(20.0, reactivation_ns=250.0)
        else:
            channel.power_off()
            channel.power_on(reactivation_ns=250.0, rate_gbps=20.0)
        assert channel.state is ChannelState.REACTIVATING
        sim.run(until_ns=279.0)
        assert channel.state is ChannelState.REACTIVATING
        sim.run(until_ns=280.0)
        assert channel.state is ChannelState.ACTIVE


class TestTimeAtRate:
    def test_time_split_across_rates(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        sim.schedule(300.0, channel.set_rate, 20.0, 0.0)
        sim.run()
        channel.stats.finalize(1000.0)
        assert channel.stats.time_at_rate[40.0] == pytest.approx(300.0)
        assert channel.stats.time_at_rate[20.0] == pytest.approx(700.0)

    def test_reactivation_charged_to_new_rate(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.set_rate(2.5, reactivation_ns=400.0)
        sim.run()
        channel.stats.finalize(400.0)
        assert channel.stats.time_at_rate.get(40.0, 0.0) == pytest.approx(0.0)
        assert channel.stats.time_at_rate[2.5] == pytest.approx(400.0)


class TestPowerOff:
    def test_power_off_and_on(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.power_off()
        assert channel.is_off
        assert not channel.usable
        assert not channel.can_enqueue(10)
        channel.power_on(reactivation_ns=100.0)
        assert channel.state is ChannelState.REACTIVATING
        sim.run()
        assert channel.state is ChannelState.ACTIVE

    def test_cannot_power_off_with_traffic(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.enqueue(packet(1000))
        with pytest.raises(RuntimeError):
            channel.power_off()

    def test_off_time_accounted_separately(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.power_off()
        channel.stats.finalize(500.0)
        assert channel.stats.time_at_rate[None] == pytest.approx(500.0)

    def test_enqueue_on_off_channel_rejected(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.power_off()
        with pytest.raises(RuntimeError):
            channel.enqueue(packet(10), force=True)

    @pytest.mark.parametrize("force", [False, True])
    def test_enqueue_on_off_channel_says_powered_off(self, force):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.power_off()
        with pytest.raises(RuntimeError, match="test is powered off"):
            channel.enqueue(packet(10), force=force)

    def test_enqueue_errors_name_the_cause(self):
        sim = Simulator()
        channel, _ = make_channel(sim, queue_capacity_bytes=1000,
                                  credit_bytes=100)
        channel.enqueue(packet(600))
        with pytest.raises(RuntimeError, match="output queue of test is full"):
            channel.enqueue(packet(600))
        channel.draining = True
        with pytest.raises(RuntimeError, match="test is draining"):
            channel.enqueue(packet(10))

    def test_set_rate_on_off_channel_rejected(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.power_off()
        with pytest.raises(RuntimeError):
            channel.set_rate(20.0, 0.0)

    def test_power_on_with_new_rate(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.power_off()
        channel.power_on(reactivation_ns=0.0, rate_gbps=2.5)
        assert channel.rate_gbps == 2.5


class TestDraining:
    def test_draining_blocks_new_traffic_but_drains_queue(self):
        sim = Simulator()
        channel, sink = make_channel(sim)
        channel.enqueue(packet(1000))
        channel.enqueue(packet(1000))
        channel.draining = True
        assert not channel.can_enqueue(10)
        assert not channel.usable
        sim.run()
        assert len(sink.received) == 2
        assert channel.drained

    def test_power_off_after_drain(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.enqueue(packet(1000))
        channel.draining = True
        sim.run()
        channel.power_off()
        assert channel.is_off


class TestDrainWakeProtocol:
    """drain / finish_drain / wake: the one way a channel goes dark."""

    def test_drain_powers_an_idle_channel_off_at_once(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        assert channel.drain() is True
        assert channel.is_off and not channel.draining

    def test_drain_leaves_a_busy_channel_draining(self):
        sim = Simulator()
        channel, sink = make_channel(sim)
        channel.enqueue(packet(1000))
        channel.enqueue(packet(1000))
        assert channel.drain() is False
        assert channel.draining and not channel.is_off
        assert not channel.usable
        assert channel.finish_drain() is False   # still serializing
        sim.run()
        assert len(sink.received) == 2
        assert channel.finish_drain() is True
        assert channel.is_off and not channel.draining

    def test_drain_of_an_off_channel_is_a_no_op(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.power_off()
        assert channel.drain() is True
        assert channel.is_off and not channel.draining

    @pytest.mark.parametrize("off", [False, True])
    def test_finish_drain_leaves_a_channel_not_draining_alone(self, off):
        sim = Simulator()
        channel, _ = make_channel(sim)
        if off:
            channel.power_off()
        assert channel.finish_drain() is False
        assert channel.is_off is off

    @pytest.mark.parametrize("rate", [None, 2.5])
    def test_wake_powers_an_off_channel_on(self, rate):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.drain()
        channel.wake(100.0, rate_gbps=rate)
        assert channel.state is ChannelState.REACTIVATING
        assert channel.rate_gbps == (40.0 if rate is None else rate)
        assert channel.stats.reactivations == 1
        sim.run()
        assert channel.state is ChannelState.ACTIVE and channel.usable

    @pytest.mark.parametrize("rate", [None, 2.5])
    def test_wake_clears_draining_on_a_lit_channel(self, rate):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.enqueue(packet(1000))
        channel.drain()
        channel.wake(100.0, rate_gbps=rate)
        # No power cycle, no reactivation: the rate is left alone.
        assert not channel.draining and channel.usable
        assert channel.rate_gbps == 40.0
        assert channel.stats.reactivations == 0

    def test_wake_of_a_lit_channel_is_a_no_op(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.wake(100.0, rate_gbps=2.5)
        assert channel.state is ChannelState.ACTIVE
        assert channel.rate_gbps == 40.0 and channel.usable

    def test_wake_rejects_a_bad_stall_before_any_change(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        channel.drain()
        with pytest.raises(ValueError):
            channel.wake(-1.0)
        assert channel.is_off

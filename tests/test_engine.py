"""The discrete-event engine."""

import pytest

from repro.core.controller import ControllerConfig, EpochController
from repro.sim.engine import Simulator
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, fired.append, "c")
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_fifo(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(5.0, fired.append, name)
        sim.run()
        assert fired == list("abcde")

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42.0]

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(5, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert fired == [("outer", 10.0), ("inner", 15.0)]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(100.0, fired.append, 1)
        sim.run()
        assert fired == [1]
        assert sim.now == 100.0

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancelled_events_dont_count_as_fired(self):
        sim = Simulator()
        sim.schedule(10, lambda: None).cancel()
        sim.schedule(20, lambda: None)
        sim.run()
        assert sim.events_fired == 1


class TestRunUntil:
    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run(until_ns=50)
        assert fired == ["early"]
        assert sim.now == 50.0

    def test_late_events_survive_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "late")
        sim.run(until_ns=50)
        sim.run()
        assert fired == ["late"]

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(50.0, fired.append, "edge")
        sim.run(until_ns=50.0)
        assert fired == ["edge"]

    def test_until_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until_ns=5.0)

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_fired == 7


class TestDaemonEvents:
    def test_periodic_daemon_does_not_block_run(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(10.0, tick, daemon=True)

        sim.schedule(10.0, tick, daemon=True)
        sim.schedule(25.0, lambda: None)   # the only real work
        sim.run()   # must terminate despite the self-rescheduling daemon
        assert sim.now == 25.0
        assert ticks == [10.0, 20.0]

    def test_daemons_fire_up_to_horizon(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule(10.0, tick, daemon=True)

        sim.schedule(10.0, tick, daemon=True)
        sim.run(until_ns=45.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_daemon_only_queue_runs_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1, daemon=True)
        sim.run()
        assert fired == []
        assert sim.live_events == 0

    def test_live_events_tracks_cancellation(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda: None)
        assert sim.live_events == 1
        event.cancel()
        assert sim.live_events == 0
        event.cancel()   # idempotent
        assert sim.live_events == 0

    def test_daemon_cancel_does_not_underflow(self):
        sim = Simulator()
        event = sim.schedule(10.0, lambda: None, daemon=True)
        event.cancel()
        assert sim.live_events == 0


class TestEntryPoint:
    """Every event enters through ``Simulator.schedule_at``: the hot
    callers skip ``schedule`` but never the queue's front door, which
    per-layer tracing patches to attribute callbacks."""

    def test_every_fabric_event_goes_through_schedule_at(self, monkeypatch):
        original = Simulator.schedule_at
        scheduled = []

        def counting(sim, time_ns, fn, *args, daemon=False):
            event = original(sim, time_ns, fn, *args, daemon=daemon)
            scheduled.append(event)
            return event

        monkeypatch.setattr(Simulator, "schedule_at", counting)
        # No escape valve, so no event is ever cancelled and every
        # scheduled event either fired or is still queued.
        net = FbflyNetwork(FlattenedButterfly(k=4, n=2),
                           NetworkConfig(seed=3, escape_timeout_ns=None))
        EpochController(net, config=ControllerConfig(
            independent_channels=True))
        hosts = net.topology.num_hosts
        for i in range(40):
            net.submit(i * 200.0, i % hosts, (i * 7 + 3) % hosts, 8192)
        net.run(until_ns=20_000.0)

        assert net.sim.events_fired > 1000
        assert net.sim.pending_events > 0
        assert not any(event.cancelled for event in scheduled)
        assert len(scheduled) == (net.sim.events_fired
                                  + net.sim.pending_events)

    def test_fifo_at_equal_times_across_entry_points_and_drivers(self):
        sim = Simulator()
        fired = []

        def spawn(tag):
            # Scheduled at the same timestamp from inside an event, by
            # both entry points: they queue behind everything already
            # waiting at t=10, in call order.
            fired.append(tag)
            sim.schedule(0.0, fired.append, tag + "-schedule")
            sim.schedule_at(sim.now, fired.append, tag + "-schedule_at")

        sim.schedule(10.0, spawn, "a")
        sim.schedule_at(10.0, fired.append, "b")
        sim.schedule(10.0, spawn, "c")
        sim.schedule_at(10.0, fired.append, "d")
        sim.schedule(20.0, fired.append, "late")

        assert sim.step()                  # a
        sim.run(until_ns=10.0)             # b, c, d, then the spawned
        assert sim.now == 10.0
        sim.schedule_at(10.0, fired.append, "e")
        assert sim.step()                  # e
        sim.run(until_ns=30.0)
        assert fired == ["a", "b", "c", "d", "a-schedule", "a-schedule_at",
                         "c-schedule", "c-schedule_at", "e", "late"]
        assert sim.events_fired == 10

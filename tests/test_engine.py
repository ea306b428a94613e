"""The discrete-event engine."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig, EpochController
from repro.sim import engine
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

    def test_schedule_at_rejects_nan(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, fired.append, "a")
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), fired.append, "nan")
        sim.schedule_at(1.0, fired.append, "b")
        sim.schedule_at(3.0, fired.append, "c")
        sim.run()
        # A NaN heap key used to break the heap order: b, c, nan, a.
        assert fired == ["b", "c", "a"]

    def test_schedule_rejects_nan_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_run_rejects_nan_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1e12, fired.append, "late")
        with pytest.raises(ValueError):
            sim.run(until_ns=float("nan"))
        # Nothing fired and the clock is intact, so the run goes on.
        assert fired == [] and sim.now == 0.0
        sim.schedule(5.0, fired.append, "next")
        sim.run(until_ns=10.0)
        assert fired == ["next"] and sim.now == 10.0

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

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "f")
        sim.run()
        event.cancel()
        assert sim.live_events == 0
        assert not event.cancelled
        # A double-counted cancel would leave live_events at -1, and
        # run() would then stop before firing g.
        sim.schedule(5, fired.append, "g")
        sim.run()
        assert fired == ["f", "g"]

    def test_cancel_from_its_own_callback_is_a_noop(self):
        sim = Simulator()
        fired = []
        box = []

        def fn():
            fired.append("self")
            box[0].cancel()

        box.append(sim.schedule(10, fn))
        sim.schedule(20, fired.append, "next")
        sim.run(until_ns=15)
        assert sim.live_events == 1
        sim.run()
        assert fired == ["self", "next"]
        assert not box[0].cancelled

    def test_repr_names_the_state(self):
        sim = Simulator()
        fired = sim.schedule(1.0, list)
        cancelled = sim.schedule(2.0, list, daemon=True)
        pending = sim.schedule(9.0, list)
        cancelled.cancel()
        sim.run(until_ns=5.0)
        assert repr(fired) == "Event(t=1.0ns, list, fired)"
        assert repr(cancelled) == "Event(t=2.0ns, list, daemon cancelled)"
        assert repr(pending) == "Event(t=9.0ns, list, pending)"


class TestPurge:
    """Cancelled entries are dropped from the heap once they outnumber
    the live ones; nothing about what fires, or when, changes."""

    def test_purge_bounds_the_heap_and_keeps_pop_order(self):
        rng = random.Random(7)
        sim = Simulator()
        fired = []
        events = [sim.schedule(rng.choice([1.0, 2.0, 3.0, 4.0]),
                               fired.append, i) for i in range(1000)]
        cancelled = set(rng.sample(range(1000), 990))
        for i in sorted(cancelled):
            events[i].cancel()
        assert sim.live_events == 10
        assert sim.pending_events <= 10 + engine._PURGE_FLOOR
        sim.run()
        survivors = [i for i in range(1000) if i not in cancelled]
        assert fired == sorted(survivors, key=lambda i: events[i].time)
        assert sim.events_fired == 10

    def test_purge_from_inside_a_running_callback(self):
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(50.0 + i % 5, fired.append, i)
                  for i in range(300)]

        def cancel_most():
            fired.append("cancel")
            for event in doomed[:290]:
                event.cancel()

        sim.schedule(10.0, cancel_most)
        sim.run(until_ns=100.0)
        assert sim.pending_events == 0
        assert fired == ["cancel"] + sorted(
            range(290, 300), key=lambda i: doomed[i].time)


class ReferenceEvent:
    def __init__(self, scheduler, seq):
        self.scheduler, self.seq = scheduler, seq

    def cancel(self):
        pending = self.scheduler.pending
        for i, entry in enumerate(pending):
            if entry[1] == self.seq:
                del pending[i]
                return


class ReferenceScheduler:
    """The engine's contract as a sorted list: events fire in (time,
    scheduling order); run() without a horizon stops once only daemons
    remain; cancelling a fired event does nothing; schedule_at returns
    the event's sequence number and schedule a handle for it."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self.pending = []       # sorted [(time, seq, fn, args, daemon)]
        self.seq = 0

    @property
    def live_events(self):
        return sum(1 for entry in self.pending if not entry[4])

    def schedule(self, delay_ns, fn, *args, daemon=False):
        return ReferenceEvent(self, self.schedule_at(
            self.now + delay_ns, fn, *args, daemon=daemon))

    def schedule_at(self, time_ns, fn, *args, daemon=False):
        assert time_ns >= self.now
        self.seq += 1
        self.pending.append((time_ns, self.seq, fn, args, daemon))
        self.pending.sort(key=lambda entry: entry[:2])
        return self.seq

    def _fire_next(self):
        time_ns, _, fn, args, _ = self.pending.pop(0)
        self.now = time_ns
        self.events_fired += 1
        fn(*args)

    def step(self):
        if not self.pending:
            return False
        self._fire_next()
        return True

    def run(self, until_ns=None):
        if until_ns is None:
            while self.live_events:
                self._fire_next()
            return
        while self.pending and self.pending[0][0] <= until_ns:
            self._fire_next()
        self.now = until_ns


DELAYS = st.sampled_from([0.0, 1.0, 2.0, 5.0])


def schedule_action(children):
    return st.tuples(st.sampled_from(["schedule", "schedule_at"]), DELAYS,
                     st.booleans(), children)


CANCEL = st.tuples(st.just("cancel"), st.integers(0, 400))
#: Schedule ``count`` events ``delay`` apart, then cancel all but every
#: ``keep``-th: enough cancelled entries to cross the real purge floor.
BURST = st.tuples(st.just("burst"), st.integers(1, 150),
                  st.sampled_from([1.0, 2.0]), st.integers(2, 20))
#: What a callback does when it fires: schedule more events (which may
#: themselves act) and cancel any handle, fired ones included.
CALLBACK_ACTIONS = st.recursive(
    st.lists(CANCEL, max_size=2),
    lambda inner: st.lists(st.one_of(CANCEL, schedule_action(inner)),
                           max_size=3),
    max_leaves=8)
ACTION = st.one_of(CANCEL, BURST, schedule_action(CALLBACK_ACTIONS))
RUN = st.one_of(st.tuples(st.just("step")),
                st.tuples(st.just("run")),
                st.tuples(st.just("run_until"), DELAYS))


def play(scheduler, program):
    """Run ``program`` against ``scheduler``; the observations after each
    step or run call (fired ``(time, tag)`` pairs so far, counters and
    the tokens ``schedule_at`` returned).  Cancel actions draw from the
    handles ``schedule`` returned, fired ones included."""
    fired = []
    handles = []
    tokens = []
    tags = iter(range(10**9))

    def act(action):
        kind = action[0]
        if kind == "cancel":
            if handles:
                handles[action[1] % len(handles)].cancel()
        elif kind == "burst":
            _, count, delay, keep = action
            burst = [act(("schedule", delay * (i % 3), False, []))
                     for i in range(count)]
            for i, event in enumerate(burst):
                if i % keep:
                    event.cancel()
        else:
            entry, delay, daemon, children = action
            tag = next(tags)
            if entry == "schedule":
                event = scheduler.schedule(delay, callback, tag, children,
                                           daemon=daemon)
                handles.append(event)
                return event
            tokens.append(scheduler.schedule_at(scheduler.now + delay,
                                                callback, tag, children,
                                                daemon=daemon))

    def callback(tag, children):
        fired.append((scheduler.now, tag))
        for child in children:
            act(child)

    observed = []
    for item in program:
        kind = item[0]
        if kind == "step":
            scheduler.step()
        elif kind == "run":
            scheduler.run()
        elif kind == "run_until":
            scheduler.run(until_ns=scheduler.now + item[1])
        else:
            act(item)
            continue
        observed.append((list(fired), scheduler.now,
                         scheduler.events_fired, scheduler.live_events,
                         list(tokens)))
    return observed


def _at(entry, delay, *children, daemon=False):
    return (entry, delay, daemon, list(children))


#: Callbacks sharing a timestamp cancel the handles scheduled just
#: before them (already fired: a no-op) and just after them (pending:
#: cancelled), themselves, and handles fired at an earlier time or
#: before a horizon.  Handle indices follow scheduling order among
#: ``schedule`` calls; ``schedule_at`` tokens interleave the sequence
#: numbers without taking an index.
EQUAL_TIME_CANCELS = {
    "before_and_after": [
        _at("schedule", 5.0),                                   # h0
        _at("schedule", 5.0, ("cancel", 0), ("cancel", 2)),     # h1
        _at("schedule", 5.0),                                   # h2
        _at("schedule", 5.0),                                   # h3
        ("run",)],
    "self_and_tokens_between": [
        _at("schedule_at", 5.0),
        _at("schedule", 5.0, ("cancel", 0), ("cancel", 1)),     # h0
        _at("schedule_at", 5.0),
        _at("schedule", 5.0, ("cancel", 0), ("cancel", 2)),     # h1
        _at("schedule_at", 5.0),
        _at("schedule", 5.0, daemon=True),                      # h2
        ("run_until", 5.0)],
    "spawned_at_the_same_time": [
        _at("schedule", 5.0,
            _at("schedule", 0.0, ("cancel", 0), ("cancel", 2)),  # h2
            _at("schedule_at", 0.0),
            _at("schedule", 0.0)),                              # h3
        _at("schedule", 5.0, ("cancel", 3)),                    # h1
        ("step",), ("step",), ("step",), ("run",)],
    "after_a_horizon": [
        _at("schedule", 5.0),                                   # h0
        _at("schedule", 5.0, daemon=True),                      # h1
        ("run_until", 5.0),
        _at("schedule", 0.0, ("cancel", 0), ("cancel", 1),
            ("cancel", 3)),                                     # h2
        _at("schedule", 0.0),                                   # h3
        ("cancel", 0), ("cancel", 1),
        ("run",)],
}


class TestAgainstReference:
    @given(st.lists(st.one_of(ACTION, RUN), max_size=40),
           st.sampled_from([0, 1, 3, engine._PURGE_FLOOR]))
    @settings(max_examples=300, deadline=None)
    def test_same_firings_as_a_sorted_list(self, program, floor):
        # Drain at the end: run() leaves daemons, a horizon fires them.
        program = program + [("run",), ("run_until", 50.0)]
        with mock.patch.object(engine, "_PURGE_FLOOR", floor):
            got = play(Simulator(), program)
        assert got == play(ReferenceScheduler(), program)

    @pytest.mark.parametrize("name", sorted(EQUAL_TIME_CANCELS))
    @pytest.mark.parametrize("floor", [0, engine._PURGE_FLOOR])
    def test_cancels_at_equal_times(self, name, floor):
        program = EQUAL_TIME_CANCELS[name] + [("run",), ("run_until", 50.0)]
        with mock.patch.object(engine, "_PURGE_FLOOR", floor):
            got = play(Simulator(), program)
        assert got == play(ReferenceScheduler(), program)


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


def _small_fabric(escape_timeout_ns, incast=False):
    """A k=4 n=2 fabric under an epoch controller with 40 messages
    submitted.  ``incast`` sends them all to host 0 through one-MTU
    output queues, so packets block."""
    config = NetworkConfig(seed=3, escape_timeout_ns=escape_timeout_ns)
    if incast:
        config = NetworkConfig(seed=3, escape_timeout_ns=escape_timeout_ns,
                               queue_capacity_bytes=config.mtu_bytes)
    net = FbflyNetwork(FlattenedButterfly(k=4, n=2), config)
    EpochController(net, config=ControllerConfig(independent_channels=True))
    hosts = net.topology.num_hosts
    for i in range(40):
        src = i % hosts
        dst = (0 if src else 1) if incast else (i * 7 + 3) % hosts
        net.submit(i * 200.0, src, dst, 8192)
    return net


class FiredSeqs:
    """An engine observer that keeps each fired event's sequence
    number."""

    def __init__(self):
        self.seqs = []

    def on_event_fired(self, entry):
        self.seqs.append(entry[1])


class TestEntryPoint:
    """Every event enters through ``Simulator.schedule_at``: the hot
    callers skip ``schedule`` but never the queue's front door, which
    per-layer tracing patches to attribute callbacks."""

    def test_every_fabric_event_goes_through_schedule_at(self, monkeypatch):
        original = Simulator.schedule_at
        tokens = []

        def counting(sim, time_ns, fn, *args, daemon=False):
            token = original(sim, time_ns, fn, *args, daemon=daemon)
            tokens.append(token)
            return token

        monkeypatch.setattr(Simulator, "schedule_at", counting)
        # No escape valve, so no event is ever cancelled and every
        # scheduled event either fired or is still queued.
        net = _small_fabric(escape_timeout_ns=None)
        fired = FiredSeqs()
        net.sim.observer = fired
        net.run(until_ns=20_000.0)

        assert net.sim.events_fired > 1000
        assert net.sim.pending_events > 0
        queued = [entry[1] for entry in net.sim._heap]
        assert sorted(fired.seqs + queued) == sorted(tokens)
        assert len(tokens) == (net.sim.events_fired
                               + net.sim.pending_events)

    def test_only_schedule_builds_event_handles(self, monkeypatch):
        built = []
        handed_out = []

        class CountedEvent(engine.Event):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        original = Simulator.schedule

        def counting(sim, *args, **kwargs):
            event = original(sim, *args, **kwargs)
            handed_out.append(event)
            return event

        monkeypatch.setattr(engine, "Event", CountedEvent)
        monkeypatch.setattr(Simulator, "schedule", counting)
        # Blocked packets arm escape deadlines, most of them cancelled.
        net = _small_fabric(escape_timeout_ns=10_000.0, incast=True)
        net.run(until_ns=20_000.0)

        escapes = [event for event in built
                   if event._fn.__qualname__ == "Switch._escape"]
        assert escapes and any(event.cancelled for event in escapes)
        assert built == handed_out
        assert net.sim.events_fired > 5 * len(built)

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

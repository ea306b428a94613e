"""Service substrate: virtual clock, ingest stream, plant, transport.

The campaign golden proves the assembled service end-to-end; this
module pins each mechanism in isolation — deterministic virtual-time
scheduling, watermark backpressure and oldest-first shedding, the
plant's idempotent actuation and stranded-dark partition accounting,
and the lossy transport's honest delivery bookkeeping.
"""

from __future__ import annotations

import asyncio
import collections
import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
    DecisionDelay,
    DecisionLoss,
    TelemetryDropout,
)
from repro.obs.decisions import DecisionLog
from repro.power.link_rates import RateLadder
from repro.service import (
    ActuationTransport,
    ControlPlaneService,
    EpochTick,
    FabricPlant,
    RateCommand,
    ServiceChaos,
    ServiceConfig,
    TelemetryRecord,
    TelemetryStream,
    VirtualClock,
)
from repro.service.clock import SETTLE_MAX_YIELDS, SETTLE_STABLE_YIELDS
from repro.workloads.service_traces import DiurnalTraceSource


def record(seq, group="g0", epoch=0, demand=5.0, queue=0.0,
           off=False, t=0.0):
    return TelemetryRecord(seq=seq, epoch=epoch, group=group,
                           time_ns=t, demand_gbps=demand,
                           utilization=0.5, queue_fraction=queue,
                           is_off=off)


class TestVirtualClock:
    def test_sleepers_wake_in_time_order(self):
        async def main():
            clock = VirtualClock()
            order = []

            async def sleeper(delta, tag):
                await clock.sleep(delta)
                order.append((tag, clock.now_ns))
                clock.note()

            tasks = [asyncio.ensure_future(sleeper(30.0, "c")),
                     asyncio.ensure_future(sleeper(10.0, "a")),
                     asyncio.ensure_future(sleeper(20.0, "b"))]
            await clock.drive(100.0)
            for task in tasks:
                task.cancel()
            return order, clock.now_ns

        order, now = asyncio.run(main())
        assert order == [("a", 10.0), ("b", 20.0), ("c", 30.0)]
        assert now == 100.0  # drive leaves the clock at the horizon

    def test_ties_wake_in_registration_order(self):
        async def main():
            clock = VirtualClock()
            order = []

            async def sleeper(tag):
                await clock.sleep(10.0)
                order.append(tag)
                clock.note()

            tasks = [asyncio.ensure_future(sleeper(t))
                     for t in ("x", "y", "z")]
            await clock.drive(10.0)
            for task in tasks:
                task.cancel()
            return order

        assert asyncio.run(main()) == ["x", "y", "z"]

    def test_time_cannot_rewind(self):
        clock = VirtualClock(start_ns=50.0)
        with pytest.raises(ValueError, match="rewind"):
            clock.advance_to(10.0)

    def test_advance_to_rejects_nan(self):
        clock = VirtualClock(start_ns=50.0)
        with pytest.raises(ValueError, match="rewind"):
            clock.advance_to(float("nan"))
        assert clock.now_ns == 50.0

    # The timeouts below turn a regression (a task parked forever on a
    # NaN wake, or drive() spinning) into a failure, not a hang.

    def test_sleep_until_rejects_nan(self):
        async def main():
            await asyncio.wait_for(
                VirtualClock().sleep_until(float("nan")), timeout=10)

        with pytest.raises(ValueError, match="NaN"):
            asyncio.run(main())

    def test_sleep_rejects_nan(self):
        async def main():
            await asyncio.wait_for(
                VirtualClock().sleep(float("nan")), timeout=10)

        with pytest.raises(ValueError, match="NaN"):
            asyncio.run(main())

    def test_drive_returns_when_a_task_asks_for_nan(self):
        async def main():
            clock = VirtualClock()
            woke = []

            async def sleeper(wake_ns):
                await clock.sleep_until(wake_ns)
                woke.append(clock.now_ns)
                clock.note()

            bad = asyncio.ensure_future(sleeper(float("nan")))
            good = asyncio.ensure_future(sleeper(20.0))
            await asyncio.wait_for(clock.drive(100.0), timeout=10)
            return bad, good, woke, clock.now_ns

        bad, good, woke, now = asyncio.run(main())
        assert isinstance(bad.exception(), ValueError)
        assert good.done() and woke == [20.0]
        assert now == 100.0

    def test_drive_rejects_nan_horizon(self):
        async def main():
            await asyncio.wait_for(VirtualClock().drive(float("nan")),
                                   timeout=10)

        with pytest.raises(ValueError, match="NaN"):
            asyncio.run(main())

    def test_sleep_in_the_past_still_yields(self):
        async def main():
            clock = VirtualClock(start_ns=100.0)
            await clock.sleep_until(10.0)
            return clock.now_ns

        assert asyncio.run(main()) == 100.0

    def test_busy_looping_coroutine_fails_loudly(self):
        async def main():
            clock = VirtualClock()

            async def spinner():
                while True:
                    clock.note()
                    await asyncio.sleep(0)

            task = asyncio.ensure_future(spinner())
            try:
                await clock.drive(10.0)
            finally:
                task.cancel()

        with pytest.raises(RuntimeError, match="quiesce"):
            asyncio.run(main())


async def _reference_settle(clock):
    """``VirtualClock._settle`` without exact quiescence: always
    ``SETTLE_STABLE_YIELDS`` yields in a row without progress."""
    stable = 0
    for _ in range(SETTLE_MAX_YIELDS):
        before = clock.progress
        await asyncio.sleep(0)
        stable = stable + 1 if clock.progress == before else 0
        if stable >= SETTLE_STABLE_YIELDS:
            return
    raise RuntimeError("service failed to quiesce")


class TestExactQuiescence:
    """Ending a settle once the event loop has nothing else to run
    must leave the interleaving exactly as the 4-yield rule has it."""

    def run_service(self, monkeypatch, reference):
        if reference:
            monkeypatch.setattr(VirtualClock, "_settle", _reference_settle)
        wakes = []
        advance_to = VirtualClock.advance_to

        def recorded(clock, time_ns):
            wakes.append(time_ns)
            return advance_to(clock, time_ns)
        monkeypatch.setattr(VirtualClock, "advance_to", recorded)
        config = ServiceConfig(groups=8, epochs=240, seed=1)
        quarter_ns = config.duration_ns / 4
        scenario = ControlFaultScenario(
            name="settle", seed=1,
            dropout=TelemetryDropout(fraction=0.6, probability=0.95,
                                     start_ns=0.2 * quarter_ns,
                                     end_ns=2.4 * quarter_ns),
            loss=DecisionLoss(probability=0.3, start_ns=0.1 * quarter_ns),
            crashes=(ControllerCrash(time_ns=3.2 * quarter_ns),))
        log = DecisionLog(max_records=None)
        summary = ControlPlaneService(config, scenario=scenario,
                                      decision_log=log).run()
        monkeypatch.undo()
        return ([d.to_dict() for d in log.records], list(log.epochs),
                wakes, summary.digest())

    def test_service_run_matches_the_four_yield_rule(self, monkeypatch):
        exact = self.run_service(monkeypatch, reference=False)
        reference = self.run_service(monkeypatch, reference=True)
        assert exact[0] and exact[2]
        assert exact == reference

    def spin(self, monkeypatch, reference):
        if reference:
            monkeypatch.setattr(VirtualClock, "_settle", _reference_settle)

        async def main():
            clock = VirtualClock()
            seen = []

            async def spinner():
                # Runnable through more than SETTLE_STABLE_YIELDS
                # yields, none of which notes progress.
                for _ in range(3 * SETTLE_STABLE_YIELDS):
                    seen.append(clock.now_ns)
                    await asyncio.sleep(0)

            async def sleeper():
                await clock.sleep(10.0)
                clock.note()

            tasks = [asyncio.ensure_future(spinner()),
                     asyncio.ensure_future(sleeper())]
            await clock.drive(20.0)
            await asyncio.gather(*tasks)
            return seen

        seen = asyncio.run(main())
        monkeypatch.undo()
        return seen

    def test_runnable_coroutine_sees_time_advance_at_the_same_point(
            self, monkeypatch):
        exact = self.spin(monkeypatch, reference=False)
        assert exact == self.spin(monkeypatch, reference=True)
        # Time moved while the spinner was still runnable.
        assert exact[0] == 0.0 and exact[-1] == 20.0

    def test_quiet_loop_settles_after_one_idle_yield(self):
        async def main():
            clock = VirtualClock()
            yields = 0
            real_sleep = asyncio.sleep

            async def counting_sleep(delay):
                nonlocal yields
                yields += 1
                await real_sleep(delay)

            clock._asyncio = type("AsyncioProxy", (), {
                "sleep": staticmethod(counting_sleep),
                "get_running_loop": staticmethod(
                    asyncio.get_running_loop)})
            await clock._settle()
            return yields

        assert asyncio.run(main()) == 1


class TestTelemetryRecordInitializer:
    """TelemetryRecord's hand-written initializer must stay the
    dataclass's."""

    VALUES = dict(seq=7, epoch=3, group="g2", time_ns=1500.0,
                  demand_gbps=12.5, utilization=0.625,
                  queue_fraction=0.25, is_off=False)

    def test_signature_is_the_field_list(self):
        params = list(inspect.signature(
            TelemetryRecord.__init__).parameters.values())[1:]
        fields = dataclasses.fields(TelemetryRecord)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, field in zip(params, fields):
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            assert field.default is dataclasses.MISSING
            assert param.default is param.empty
        assert list(self.VALUES) == [f.name for f in fields]

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = TelemetryRecord(**self.VALUES)
        by_position = TelemetryRecord(*self.VALUES.values())
        assert by_keyword == by_position
        assert list(vars(by_keyword).items()) == list(self.VALUES.items())
        with pytest.raises(TypeError):
            TelemetryRecord(*list(self.VALUES.values())[:-1])

    def test_equality_hash_and_repr(self):
        a, b = TelemetryRecord(**self.VALUES), TelemetryRecord(**self.VALUES)
        assert a == b and hash(a) == hash(b)
        assert dataclasses.replace(a, utilization=0.5) != a
        assert repr(a) == "TelemetryRecord(" + ", ".join(
            f"{name}={value!r}" for name, value in self.VALUES.items()
        ) + ")"

    def test_round_trips(self):
        r = TelemetryRecord(**self.VALUES)
        assert dataclasses.asdict(r) == self.VALUES
        assert dataclasses.replace(r) == r
        # What the chaos layer's corruption does to a reading.
        corrupt = dataclasses.replace(r, utilization=1.0, demand_gbps=40.0)
        assert vars(corrupt) == {**self.VALUES, "utilization": 1.0,
                                 "demand_gbps": 40.0}
        for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r),
                      copy.copy(r)):
            assert clone == r and clone is not r
            assert vars(clone) == self.VALUES

    def test_assignment_is_refused(self):
        r = TelemetryRecord(**self.VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.utilization = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.group
        assert r.utilization == 0.625


class ScanStream:
    """Reference stream semantics: the backlog is recomputed by a scan
    over every group ever seen, and emptied queues are kept."""

    def __init__(self, capacity, high_watermark, low_watermark):
        self.capacity = capacity
        self.high, self.low = high_watermark, low_watermark
        self.items = collections.OrderedDict()
        self.group_seqs = {}
        self.shed, self.shed_by_group = [], {}
        self.max_backlog = self.backpressure_raises = 0
        self.backpressure = False

    def data_backlog(self):
        return sum(len(q) for q in self.group_seqs.values())

    def offer(self, item):
        accepted = True
        if isinstance(item, TelemetryRecord):
            if (self.capacity is not None
                    and self.data_backlog() >= self.capacity):
                victim = (item.group if self.group_seqs.get(item.group)
                          else min((-len(q), name) for name, q
                                   in self.group_seqs.items() if q)[1])
                seq = self.group_seqs[victim].popleft()
                self.shed.append(self.items.pop(seq))
                self.shed_by_group[victim] = (
                    self.shed_by_group.get(victim, 0) + 1)
                accepted = False
            self.group_seqs.setdefault(
                item.group, collections.deque()).append(item.seq)
        self.items[item.seq] = item
        self.max_backlog = max(self.max_backlog, self.data_backlog())
        self._watermarks()
        return accepted

    def get(self):
        seq, item = self.items.popitem(last=False)
        if isinstance(item, TelemetryRecord):
            queue = self.group_seqs.get(item.group)
            if queue and queue[0] == seq:
                queue.popleft()
        self._watermarks()
        return item

    def _watermarks(self):
        backlog = self.data_backlog()
        if self.capacity is None:
            return
        if not self.backpressure and backlog >= self.high:
            self.backpressure = True
            self.backpressure_raises += 1
        elif self.backpressure and backlog <= self.low:
            self.backpressure = False


def get_queued(stream):
    """``stream.get()`` for a nonempty stream, which returns without
    awaiting, so no event loop is needed."""
    coroutine = stream.get()
    try:
        coroutine.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("get() awaited on a nonempty stream")


#: One stream step: offer a record for group ``n``, offer a tick, or
#: get.  Records are listed thrice so that streams fill and shed.
STREAM_STEPS = st.tuples(
    st.sampled_from(["record", "record", "record", "tick", "get"]),
    st.integers(min_value=0, max_value=7))


#: Burst steps: ``count`` records for one group (its queue deepens, so
#: sheds take the mixed-backlog path), one record for each of the
#: first ``count`` groups (every queue holds one: the all-singleton
#: path), a tick, or ``count`` gets.
BURST_STEPS = st.tuples(
    st.sampled_from(["burst", "fleet", "fleet", "tick", "get"]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=6))


class TestTelemetryStream:
    def make(self, capacity=3, **kwargs):
        return TelemetryStream(VirtualClock(), capacity=capacity,
                               **kwargs)

    def test_fifo_order_across_records_and_ticks(self):
        stream = self.make(capacity=8)
        stream.offer(record(1, "a"))
        stream.offer(EpochTick(seq=2, epoch=0, time_ns=0.0))
        stream.offer(record(3, "b"))

        async def drain():
            return [await stream.get() for _ in range(3)]

        seqs = [item.seq for item in asyncio.run(drain())]
        assert seqs == [1, 2, 3]

    def test_shedding_keeps_the_freshest_reading_per_group(self):
        shed = []
        stream = self.make(capacity=2, on_shed=shed.append)
        stream.offer(record(1, "a", epoch=0))
        stream.offer(record(2, "b", epoch=0))
        stream.offer(record(3, "a", epoch=1))  # sheds a's epoch-0
        assert [r.seq for r in shed] == [1]
        assert stream.shed == 1
        assert stream.shed_by_group == {"a": 1}
        assert stream.data_backlog() == 2

    def test_shedding_falls_back_to_most_backlogged_group(self):
        shed = []
        stream = self.make(capacity=3, on_shed=shed.append)
        stream.offer(record(1, "a"))
        stream.offer(record(2, "a", epoch=1))
        stream.offer(record(3, "b"))
        stream.offer(record(4, "c"))  # c has no backlog; a is deepest
        assert [r.seq for r in shed] == [1]

    def test_shedding_ties_break_by_group_name(self):
        shed = []
        stream = self.make(capacity=2, on_shed=shed.append)
        stream.offer(record(1, "b"))
        stream.offer(record(2, "a"))
        stream.offer(record(3, "c"))
        assert [r.group for r in shed] == ["a"]

    def test_ticks_are_never_shed(self):
        stream = self.make(capacity=1)
        stream.offer(record(1, "a"))
        for seq in range(2, 6):
            stream.offer(EpochTick(seq=seq, epoch=seq, time_ns=0.0))
        assert stream.shed == 0
        assert len(stream) == 5  # 1 record + 4 ticks

    def test_watermark_hysteresis(self):
        stream = self.make(capacity=8, high_watermark=4,
                           low_watermark=2)
        for seq in range(4):
            stream.offer(record(seq, f"g{seq}"))
        assert stream.backpressure is True
        assert stream.backpressure_raises == 1

        async def drain(n):
            for _ in range(n):
                await stream.get()

        asyncio.run(drain(1))
        assert stream.backpressure is True  # 3 > low watermark
        asyncio.run(drain(1))
        assert stream.backpressure is False
        stream.offer(record(10, "x"))  # backlog 3 < high: no raise
        assert stream.backpressure_raises == 1
        stream.offer(record(11, "y"))  # backlog 4 hits high again
        assert stream.backpressure_raises == 2

    def test_unbounded_mode_never_sheds(self):
        stream = self.make(capacity=None)
        for seq in range(100):
            stream.offer(record(seq, "a", epoch=seq))
        assert stream.shed == 0
        assert stream.data_backlog() == 100
        assert stream.backpressure is False

    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            self.make(capacity=0)

    @given(groups=st.integers(min_value=1, max_value=8),
           capacity=st.sampled_from([None, 1, 2, 3, 10]),
           steps=st.lists(STREAM_STEPS, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scan_reference(self, groups, capacity, steps):
        shed = []
        stream = self.make(capacity=capacity, on_shed=shed.append)
        ref = ScanStream(capacity, stream.high_watermark,
                         stream.low_watermark)
        for seq, (op, n) in enumerate(steps):
            if op == "get":
                if len(ref.items) == 0:
                    continue
                assert get_queued(stream) == ref.get()
            elif op == "tick":
                item = EpochTick(seq=seq, epoch=seq, time_ns=0.0)
                assert stream.offer(item) is ref.offer(item)
            else:
                item = record(seq, f"g{n % groups}", epoch=seq)
                assert stream.offer(item) is ref.offer(item)
            assert shed == ref.shed
            assert stream.data_backlog() == ref.data_backlog()
            assert len(stream) == len(ref.items)
            assert all(stream._group_seqs.values())
        assert stream.max_backlog == ref.max_backlog
        assert stream.backpressure is ref.backpressure
        assert stream.backpressure_raises == ref.backpressure_raises
        assert stream.shed == len(ref.shed)
        assert stream.shed_by_group == ref.shed_by_group

    def test_all_singleton_backlog_sheds_the_least_name(self):
        shed = []
        stream = self.make(capacity=3, on_shed=shed.append)
        for seq, group in enumerate(["c", "a", "b", "d", "e"]):
            stream.offer(record(seq, group))
        # d sheds a (the least of a, b, c); e then sheds b.
        assert [r.group for r in shed] == ["a", "b"]
        assert stream.shed_by_group == {"a": 1, "b": 1}

    def test_mixed_backlog_sheds_the_deepest_group_first(self):
        shed = []
        stream = self.make(capacity=4, on_shed=shed.append)
        for seq, group in enumerate(["b", "c", "c", "a", "d", "e", "f"]):
            stream.offer(record(seq, group, epoch=seq))
        # d sheds c's oldest (c is deepest); e and f then find every
        # queue at one record and shed a, then b.
        assert [(r.group, r.seq) for r in shed] \
            == [("c", 1), ("a", 3), ("b", 0)]

    @given(groups=st.integers(min_value=1, max_value=8),
           capacity=st.sampled_from([1, 2, 3, 5, 10]),
           steps=st.lists(BURST_STEPS, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_bursts_shed_like_the_scan_reference(self, groups, capacity,
                                                 steps):
        shed = []
        stream = self.make(capacity=capacity, on_shed=shed.append)
        ref = ScanStream(capacity, stream.high_watermark,
                         stream.low_watermark)
        seq = 0
        for op, n, count in steps:
            if op == "get":
                for _ in range(min(count, len(ref.items))):
                    assert get_queued(stream) == ref.get()
                continue
            if op == "tick":
                items = [EpochTick(seq=seq, epoch=seq, time_ns=0.0)]
            elif op == "burst":
                items = [record(seq + i, f"g{n % groups}", epoch=seq + i)
                         for i in range(count)]
            else:
                items = [record(seq + i, f"g{(n + i) % groups}",
                                epoch=seq)
                         for i in range(count)]
            for item in items:
                assert stream.offer(item) is ref.offer(item)
            seq += len(items)
            assert shed == ref.shed
            assert stream.data_backlog() == ref.data_backlog()
        assert stream.shed_by_group == ref.shed_by_group


class TestDiurnalTraceSource:
    def test_unknown_group_is_named(self):
        source = DiurnalTraceSource(("a", "b"))
        with pytest.raises(ValueError, match="'c'"):
            source.demand("c", 0)


class TestFabricPlant:
    def make(self, groups=("a", "b"), **kwargs):
        kwargs.setdefault("epoch_ns", 1e9)
        kwargs.setdefault("strand_grace_epochs", 2)
        return FabricPlant(groups, ladder=RateLadder((10.0, 40.0)),
                           **kwargs)

    def test_apply_is_idempotent(self):
        plant = self.make()
        assert plant.apply("a", 10.0, 0.0) is True
        assert plant.apply("a", 10.0, 0.0) is False
        assert plant.apply("a", 0.0, 0.0) is True
        assert plant.apply("a", 0.0, 0.0) is False
        assert plant.groups["a"].duplicates == 2

    def test_waking_pays_the_reactivation_delay(self):
        plant = self.make(reactivation_ns=5e6)
        plant.apply("a", 0.0, 0.0)
        plant.apply("a", 10.0, 1e9)
        g = plant.groups["a"]
        assert g.capacity_gbps(1e9 + 1e6) == 0.0   # still re-locking
        assert g.capacity_gbps(1e9 + 6e6) == 10.0

    def test_rates_clamp_to_the_ladder(self):
        plant = self.make()
        plant.apply("a", 17.0, 0.0)
        assert plant.groups["a"].rate_gbps in (10.0, 40.0)

    def test_stranded_interval_counts_one_partition(self):
        plant = self.make()
        plant.apply("a", 0.0, 0.0)
        for epoch in range(5):
            plant.step(epoch, epoch * 1e9, {"a": 4.0, "b": 0.0})
        # grace=2: epochs 0-2 within grace, epoch 3 opens the interval.
        assert plant.partitions == 1
        assert plant.stranded_epochs == 5
        # Demand relief closes the interval; a second strand is a
        # second partition.
        plant.step(5, 5e9, {"a": 0.0, "b": 0.0})
        for epoch in range(6, 10):
            plant.step(epoch, epoch * 1e9, {"a": 4.0, "b": 0.0})
        assert plant.partitions == 2

    def test_queue_accumulates_unserved_demand_then_drains(self):
        plant = self.make()
        plant.apply("a", 0.0, 0.0)
        plant.step(0, 0.0, {"a": 4.0})
        g = plant.groups["a"]
        assert g.queue_gbs == pytest.approx(4.0)
        plant.apply("a", 40.0, 1e9)
        plant.step(1, 2e9, {"a": 4.0})
        assert g.queue_gbs == pytest.approx(0.0)
        assert plant.served_fraction == pytest.approx(1.0)

    def test_mean_rate_fraction_is_the_energy_proxy(self):
        plant = self.make(groups=("a",))
        plant.apply("a", 10.0, 0.0)
        plant.step(0, 0.0, {"a": 1.0})
        assert plant.mean_rate_fraction == pytest.approx(0.25)


class TestActuationTransport:
    def run_send(self, scenario=None, seq=1):
        acks = []

        async def main():
            clock = VirtualClock()
            plant = FabricPlant(("a",), epoch_ns=1e9)
            chaos = (ServiceChaos(clock, scenario=scenario)
                     if scenario is not None else None)
            transport = ActuationTransport(
                clock, plant, chaos=chaos, base_delay_ns=2e6,
                ack_delay_ns=2e6,
                on_ack=lambda cmd, changed: acks.append(
                    (cmd.seq, changed, clock.now_ns)))
            transport.send(RateCommand(seq=seq, group="a",
                                       rate_gbps=10.0, epoch=0,
                                       time_ns=0.0))
            await clock.drive(1e9)
            return transport, plant

        transport, plant = asyncio.run(main())
        return transport, plant, acks

    def test_delivery_applies_and_acks(self):
        transport, plant, acks = self.run_send()
        assert transport.digest() == {
            "sent": 1, "lost": 0, "delayed": 0, "delivered": 1,
            "acked": 1}
        assert plant.groups["a"].rate_gbps == 10.0
        assert acks == [(1, True, 4e6)]  # send + ack delay

    def test_lost_command_never_reaches_the_plant(self):
        scenario = ControlFaultScenario(
            name="t", loss=DecisionLoss(probability=1.0))
        transport, plant, acks = self.run_send(scenario=scenario)
        assert transport.lost == 1
        assert transport.delivered == 0
        assert plant.groups["a"].applied == 0
        assert acks == []

    def test_delayed_command_arrives_late_but_intact(self):
        scenario = ControlFaultScenario(
            name="t", delay=DecisionDelay(probability=1.0, epochs=0.1))
        transport, plant, acks = self.run_send(scenario=scenario)
        assert transport.delayed == 1
        assert acks[0][2] == pytest.approx(0.1 * 1e9 + 4e6)

    def test_resends_draw_independent_fates(self):
        # probability 0.5: with fresh seqs the fate eventually differs.
        scenario = ControlFaultScenario(
            name="t", loss=DecisionLoss(probability=0.5))
        fates = set()
        for seq in range(1, 12):
            transport, _, _ = self.run_send(scenario=scenario, seq=seq)
            fates.add(transport.lost)
        assert fates == {0, 1}

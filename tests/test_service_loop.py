"""The service decision loop: ladder, journal, retries, supervision.

The decision logic is synchronous (only the stream plumbing is
async), so the degraded-mode ladder and the intent journal are pinned
here with a fake transport and hand-fed ticks; the supervisor is
exercised end-to-end through a real crash scenario.
"""

from __future__ import annotations

import dataclasses

from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
)
from repro.obs.decisions import (
    BELOW_THRESHOLD,
    GATED_OFF,
    GATED_WAKE,
    SERVICE_RECOVERED,
    SERVICE_RESTART,
    SERVICE_RETRY,
    SERVICE_SAFE_FLOOR,
    SERVICE_STALE_HOLD,
    DecisionLog,
)
from repro.service import (
    ControlPlaneService,
    EpochTick,
    ServiceConfig,
    ServiceDecisionLoop,
    TelemetryRecord,
    VirtualClock,
)

CONFIG = ServiceConfig(groups=2, epochs=16, epochs_per_day=8)


class FakeTransport:
    def __init__(self):
        self.commands = []

    def send(self, command):
        self.commands.append(command)


def make_loop(config=CONFIG, state=None):
    log = DecisionLog()
    loop = ServiceDecisionLoop(VirtualClock(), config, stream=None,
                               transport=FakeTransport(),
                               decision_log=log, state=state)
    return loop, log, loop.transport


def feed(loop, epoch, demand, group="g0", queue=0.0, off=False):
    loop._ingest(TelemetryRecord(
        seq=0, epoch=epoch, group=group, time_ns=epoch * 1e10,
        demand_gbps=demand, utilization=0.5, queue_fraction=queue,
        is_off=off))


def tick(loop, epoch):
    loop._process_tick(EpochTick(seq=0, epoch=epoch,
                                 time_ns=epoch * 1e10))


def ack(loop, command):
    loop.on_ack(command, True)


class TestDemandLadder:
    def test_fresh_telemetry_picks_the_smallest_sufficient_rate(self):
        loop, log, transport = make_loop()
        for group in ("g0", "g1"):
            feed(loop, 0, demand=5.0, group=group)
        tick(loop, 0)
        # 5.0 <= 0.6 * 10 but not 0.6 * 5: the ladder lands on 10.
        assert [c.rate_gbps for c in transport.commands] == [10.0, 10.0]
        assert log.reason_counts[BELOW_THRESHOLD] == 2

    def test_idle_group_gates_after_the_grace(self):
        loop, log, transport = make_loop()
        sent = []
        for epoch in range(CONFIG.gate_after_epochs):
            for group in ("g0", "g1"):
                feed(loop, epoch, demand=0.0, group=group)
            tick(loop, epoch)
            for command in list(transport.commands):
                ack(loop, command)
            sent.extend(transport.commands)
            transport.commands.clear()
        offs = [c for c in sent if c.rate_gbps == 0.0]
        assert len(offs) == 2
        assert log.reason_counts[GATED_OFF] == 2
        assert loop.state.groups["g0"].gated is True

    def gate_both(self, loop, transport):
        for epoch in range(CONFIG.gate_after_epochs):
            for group in ("g0", "g1"):
                feed(loop, epoch, demand=0.0, group=group)
            tick(loop, epoch)
            for command in list(transport.commands):
                ack(loop, command)
            transport.commands.clear()
        return CONFIG.gate_after_epochs

    def test_gated_group_wakes_on_demand(self):
        loop, log, transport = make_loop()
        epoch = self.gate_both(loop, transport)
        feed(loop, epoch, demand=4.0, group="g0", off=True)
        feed(loop, epoch, demand=0.0, group="g1", off=True)
        tick(loop, epoch)
        assert log.reason_counts[GATED_WAKE] == 1
        wake = transport.commands[0]
        assert wake.group == "g0" and wake.rate_gbps >= 4.0
        assert loop.state.groups["g1"].gated is True

    def test_gated_group_wakes_on_queue_growth(self):
        loop, log, transport = make_loop()
        epoch = self.gate_both(loop, transport)
        feed(loop, epoch, demand=0.0, queue=0.5, group="g0", off=True)
        feed(loop, epoch, demand=0.0, group="g1", off=True)
        tick(loop, epoch)
        assert log.reason_counts[GATED_WAKE] == 1


class TestDegradedModes:
    def test_silence_within_ttl_holds_last_good(self):
        loop, log, transport = make_loop()
        for group in ("g0", "g1"):
            feed(loop, 0, demand=5.0, group=group)
        tick(loop, 0)
        for command in list(transport.commands):
            ack(loop, command)
        transport.commands.clear()
        feed(loop, 1, demand=5.0, group="g1")  # g0 goes silent
        tick(loop, 1)
        assert log.reason_counts[SERVICE_STALE_HOLD] == 1
        assert all(c.group != "g0" for c in transport.commands)
        assert loop.state.stale_holds == 1

    def test_silence_past_ttl_ramps_to_the_safe_floor(self):
        config = dataclasses.replace(CONFIG, fleet_floor_fraction=1.1)
        loop, log, transport = make_loop(config)
        feed(loop, 0, demand=1.0, group="g0")
        for epoch in range(config.staleness_ttl_epochs + 2):
            feed(loop, epoch, demand=5.0, group="g1")
            tick(loop, epoch)
            for command in list(transport.commands):
                ack(loop, command)
            transport.commands.clear()
        assert log.reason_counts[SERVICE_SAFE_FLOOR] >= 1
        g0 = loop.state.groups["g0"]
        assert g0.believed_rate >= config.floor_rate_gbps
        assert loop.state.safe_floors >= 1

    def test_safe_floor_wakes_a_gated_group(self):
        loop, log, transport = make_loop()
        state = loop.state
        state.groups["g0"].gated = True
        state.groups["g0"].fresh_epoch = 0
        state.groups["g1"].fresh_epoch = 0
        ttl = CONFIG.staleness_ttl_epochs
        tick(loop, ttl + 2)  # both stale: fleet floor engages
        assert state.fleet_floor_epochs == 1
        assert state.groups["g0"].gated is False
        sent = {c.group for c in transport.commands}
        assert "g0" in sent
        assert log.reason_counts[SERVICE_SAFE_FLOOR] == 2

    def test_unprotected_reads_silence_as_idleness(self):
        # The signature hazard: with degraded modes off, a silent
        # group looks idle and the ladder walks it dark.
        loop, log, transport = make_loop(CONFIG.unprotected())
        feed(loop, 0, demand=8.0, group="g0")
        feed(loop, 0, demand=8.0, group="g1")
        tick(loop, 0)
        for epoch in range(1, CONFIG.gate_after_epochs + 1):
            feed(loop, epoch, demand=8.0, group="g1")  # g0 silent
            tick(loop, epoch)
        assert log.reason_counts[GATED_OFF] == 1
        assert loop.state.groups["g0"].gated is True
        assert SERVICE_STALE_HOLD not in log.reason_counts


class TestIntentJournal:
    def send_one(self, loop, transport):
        feed(loop, 0, demand=5.0, group="g0")
        feed(loop, 0, demand=5.0, group="g1")
        tick(loop, 0)
        return list(transport.commands)

    def test_sends_are_journaled_until_acked(self):
        loop, _, transport = make_loop()
        commands = self.send_one(loop, transport)
        assert set(loop.state.journal) == {"g0", "g1"}
        ack(loop, commands[0])
        assert set(loop.state.journal) == {"g1"}
        assert loop.state.acks == 1

    def test_ack_updates_belief(self):
        loop, _, transport = make_loop()
        commands = self.send_one(loop, transport)
        ack(loop, commands[0])
        assert loop.state.groups["g0"].believed_rate == 10.0
        assert loop.state.groups["g0"].believed_off is False

    def test_stale_ack_does_not_clear_a_newer_intent(self):
        loop, _, transport = make_loop()
        old = self.send_one(loop, transport)[0]
        entry = loop.state.journal["g0"]
        newer = dataclasses.replace(entry, seq=entry.seq + 10)
        loop.state.journal["g0"] = newer
        ack(loop, old)  # belief updates, journal entry survives
        assert loop.state.journal["g0"] is newer

    def test_unacked_command_retries_with_a_fresh_seq(self):
        loop, log, transport = make_loop()
        commands = self.send_one(loop, transport)
        entry = loop.state.journal["g0"]
        loop._run_retries(entry.next_retry_ns + 1.0)
        assert loop.state.retries == 2  # both groups timed out
        assert log.reason_counts[SERVICE_RETRY] == 2
        resend = transport.commands[-2]
        assert resend.group == "g0"
        assert resend.seq > commands[-1].seq
        assert loop.state.journal["g0"].attempts == 2

    def test_backoff_grows_and_is_deterministic(self):
        gaps = []
        for _ in range(2):
            loop, _, transport = make_loop()
            self.send_one(loop, transport)
            now = loop.state.journal["g0"].next_retry_ns
            run = []
            for _ in range(3):
                loop._run_retries(now + 1.0)
                entry = loop.state.journal["g0"]
                run.append(entry.next_retry_ns - (now + 1.0))
                now = entry.next_retry_ns
            gaps.append(run)
        assert gaps[0] == gaps[1]           # string-seeded jitter
        assert gaps[0][0] < gaps[0][1] < gaps[0][2]  # exponential

    def test_retry_budget_is_bounded(self):
        loop, _, transport = make_loop()
        self.send_one(loop, transport)
        now = 0.0
        for _ in range(CONFIG.retry_max_attempts + 2):
            entries = loop.state.journal.values()
            if not entries:
                break
            now = max(e.next_retry_ns for e in entries) + 1.0
            loop._run_retries(now)
        assert loop.state.journal == {}
        assert loop.state.retry_exhausted == 2

    def test_journal_cap_evicts_oldest(self):
        config = dataclasses.replace(CONFIG, groups=4, journal_cap=2)
        loop, _, transport = make_loop(config)
        for group in config.group_names:
            feed(loop, 0, demand=5.0, group=group)
        tick(loop, 0)
        assert len(loop.state.journal) == 2
        assert set(loop.state.journal) == {"g2", "g3"}
        assert loop.state.journal_evictions == 2

    def test_unprotected_belief_is_optimistic(self):
        loop, _, transport = make_loop(CONFIG.unprotected())
        self.send_one(loop, transport)
        assert loop.state.journal == {}
        assert loop.state.groups["g0"].believed_rate == 10.0


class TestPowerJournal:
    def decision(self, reason, group="a", t=1.0, changed=False):
        """The tap payload: ``(reason, group, time_ns, changed)``."""
        return reason, group, t, changed

    def test_gate_off_marks_dark_and_wake_clears(self):
        journal = ControlPlaneService(CONFIG).power_journal
        journal.observe(*self.decision(GATED_OFF))
        assert journal.dark_groups() == ["a"]
        journal.observe(*self.decision(GATED_WAKE, t=2.0))
        assert journal.dark_groups() == []

    def test_any_changed_send_marks_lit(self):
        journal = ControlPlaneService(CONFIG).power_journal
        journal.observe(*self.decision(GATED_OFF))
        journal.observe(*self.decision(BELOW_THRESHOLD, t=2.0,
                                       changed=True))
        assert journal.dark_groups() == []

    def test_unsupervised_service_keeps_no_journal(self):
        # Only the supervisor reads the journal, so without one no
        # decision record pays for its tap.
        log = DecisionLog()
        service = ControlPlaneService(
            CONFIG.unprotected(), decision_log=log)
        assert service.power_journal is None and service.supervisor is None
        assert log.taps == []


class TestSupervisor:
    def test_crashed_loop_is_restarted_and_run_completes(self):
        config = ServiceConfig(groups=4, epochs=20, epochs_per_day=10,
                               seed=2)
        scenario = ControlFaultScenario(
            name="crash", crashes=(ControllerCrash(
                time_ns=9.3 * config.epoch_ns,
                restart_after_epochs=None),))
        log = DecisionLog()
        service = ControlPlaneService(config, scenario=scenario,
                                      decision_log=log)
        summary = service.run()
        assert summary.restarts == 1
        assert log.reason_counts[SERVICE_RESTART] == 1
        # The replacement loop finishes the run.
        assert service.loop.state.decided_epoch == config.epochs - 1
        assert summary.partitions == 0

    def test_unsupervised_crash_stays_dead(self):
        config = ServiceConfig(groups=4, epochs=20, epochs_per_day=10,
                               seed=2).unprotected()
        scenario = ControlFaultScenario(
            name="crash", crashes=(ControllerCrash(
                time_ns=9.3 * config.epoch_ns,
                restart_after_epochs=None),))
        service = ControlPlaneService(config, scenario=scenario)
        summary = service.run()
        assert summary.restarts == 0
        assert service.loop.state.decided_epoch < config.epochs - 1

    def test_restart_recovers_journal_dark_groups(self):
        # A group gated dark before the crash, with a checkpoint that
        # remembers the gating: the supervisor still wakes it, because
        # the restored state's eyes are stale.
        config = ServiceConfig(groups=4, epochs=30, epochs_per_day=30,
                               seed=2)
        crash_ns = 16.3 * config.epoch_ns
        scenario = ControlFaultScenario(
            name="crash", crashes=(ControllerCrash(
                time_ns=crash_ns, restart_after_epochs=None),))
        log = DecisionLog()
        service = ControlPlaneService(config, scenario=scenario,
                                      decision_log=log)
        dark_at_restart = []

        def snapshot(reason, group, time_ns, changed):
            # Registered after the power journal's tap, so the
            # restart record has reached the journal, no recovery has.
            if reason == SERVICE_RESTART:
                dark_at_restart.append(
                    service.power_journal.dark_groups())

        log.taps.append(snapshot)
        summary = service.run()
        assert summary.restarts == 1
        gated_before_crash = {d.group for d in log.records
                              if d.reason == GATED_OFF
                              and d.time_ns < crash_ns}
        assert gated_before_crash
        dark, = dark_at_restart
        assert dark
        assert set(dark) <= gated_before_crash
        recovered = [d.group for d in log.records
                     if d.reason == SERVICE_RECOVERED]
        assert sorted(recovered) == dark
        assert summary.recoveries == len(dark)
        assert summary.partitions == 0

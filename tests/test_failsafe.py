"""The failsafe guard: every mechanism, exercised in isolation.

The chaos campaign (``tests/golden/chaos.json``) proves the guard
works end-to-end; this module pins down *each* mechanism — the
staleness veto, the deadman watchdog, queue-pressure relief, the
retry-with-backoff loop and crash recovery from the decision-log
journal — plus the two meta-properties: the guard is inert on a
healthy control plane, and its actions keep the transition audit
exactly consistent with ``reconfigurations``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.controller import ControllerConfig, EpochController
from repro.core.failsafe import FailsafeConfig, FailsafeGuard, GuardedGroup
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.faults.control_faults import (
    ControlFaultScenario,
    ControlPlaneChaos,
    DecisionLoss,
    TelemetryDropout,
)
from repro.obs.decisions import (
    CONTROL_FAULT_RESTART,
    FAILSAFE_DEADMAN,
    FAILSAFE_HOLD,
    FAILSAFE_RECOVERED,
    FAILSAFE_RETRY,
    GATED_OFF,
    DecisionLog,
)
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import US

CHAOS_SPEC = SimulationSpec(k=2, n=2, duration_ns=400_000.0,
                            control="epoch",
                            control_faults="ctl_chaos_mid",
                            fault_seed=9)


def make_guarded(seed=4, chaos_scenario=None, config=None, log=None):
    """network, controller, (chaos or None), guard — wired in the
    deployment order controller -> guard -> chaos -> fabric."""
    net = FbflyNetwork(FlattenedButterfly(k=2, n=3),
                       NetworkConfig(seed=seed))
    ctrl = EpochController(net, config=ControllerConfig(
        epoch_ns=10.0 * US))
    chaos = None
    if chaos_scenario is not None:
        chaos = ControlPlaneChaos(ctrl, chaos_scenario, decision_log=log)
    guard = FailsafeGuard(ctrl, config=config, decision_log=log, seed=3)
    return net, ctrl, chaos, guard


def dropout_scenario(probability=1.0):
    return ControlFaultScenario(
        name="t", dropout=TelemetryDropout(probability=probability))


class FakeChannel:
    def __init__(self, name="c0"):
        self.name = name
        self._pending_rate = None
        self.is_off = False
        self.draining = False


class FakeRaw:
    """Duck-typed raw group for pressure-relief unit tests."""

    def __init__(self, rate=10.0, queue_fraction=0.9):
        self.channels = [FakeChannel()]
        self.current_rate = rate
        self.queue_fraction = queue_fraction
        self.commands = []

    def max_queue_fraction(self):
        return self.queue_fraction

    def set_rate(self, rate_gbps, reactivation_ns):
        self.commands.append(rate_gbps)
        changed = rate_gbps != self.current_rate
        self.current_rate = rate_gbps
        return changed


class FakeInner:
    def __init__(self):
        self.name = "g"
        self.channels = (FakeChannel(),)


class TestInertOnHealthyPlane:
    def test_guard_counters_stay_zero_without_chaos(self):
        net, _, _, guard = make_guarded()
        n = net.topology.num_hosts
        for i in range(60):
            net.submit(i * 3_000.0, src=i % n, dst=(i + 3) % n,
                       size_bytes=4096)
        net.run(until_ns=400.0 * US)
        digest = guard.digest()
        for key in ("holds", "deadman_floors", "pressure_ups", "retries",
                    "recoveries", "reconfigurations",
                    "controller_down_epochs"):
            assert digest[key] == 0, f"{key} fired on a healthy plane"

    def test_guarded_run_matches_the_unguarded_one(self):
        base = SimulationSpec(k=2, n=2, duration_ns=300_000.0,
                              control="epoch")
        plain = run_simulation(base)
        guarded = run_simulation(replace(base, failsafe=True))
        assert guarded.mean_packet_latency_ns == \
            pytest.approx(plain.mean_packet_latency_ns)
        assert guarded.measured_power_fraction == \
            pytest.approx(plain.measured_power_fraction)
        assert guarded.reconfigurations == plain.reconfigurations
        fs = guarded.control_plane["failsafe"]
        assert fs["holds"] == 0 and fs["retries"] == 0


class TestStalenessVeto:
    def test_dark_input_decision_is_vetoed(self):
        log = DecisionLog()
        _, ctrl, _, guard = make_guarded(
            chaos_scenario=dropout_scenario(0.0), log=log)
        gg = ctrl.groups[0]
        assert isinstance(gg, GuardedGroup)
        inner = gg._inner
        # A decision on good telemetry establishes the baseline...
        assert gg.set_rate(10.0, 1000.0) is True
        assert gg._st.last_good_rate == 10.0
        # ...then the report is lost and the next decision is vetoed.
        inner.delivered_ok = False
        assert gg.set_rate(2.5, 1000.0) is False
        assert guard.holds == 1
        assert log.reason_counts[FAILSAFE_HOLD] == 1
        for ch in gg.raw.channels:
            assert (ch._pending_rate or ch.rate_gbps) == 10.0

    def test_first_ever_decision_passes_even_if_dark(self):
        # No last-good baseline to hold: vetoing would deadlock the
        # group at its boot rate forever.
        _, ctrl, _, guard = make_guarded(
            chaos_scenario=dropout_scenario(0.0))
        gg = ctrl.groups[0]
        gg._inner.delivered_ok = False
        assert gg.set_rate(10.0, 1000.0) is True
        assert guard.holds == 0

    def test_hold_wakes_a_group_gated_on_dark_telemetry(self):
        # Inside the TTL the epoch pass restores the last good posture
        # of a group something powered off while its reports were lost.
        net, ctrl, _, guard = make_guarded(
            chaos_scenario=dropout_scenario(0.0))
        gg = ctrl.groups[0]
        gg.set_rate(10.0, 1000.0)
        for ch in gg.raw.channels:
            ch.power_off()
        gg._inner.delivered_ok = False
        gg._inner.lost_streak = 1
        guard._tend(gg, epoch=1, down=False)
        net.run(until_ns=5_000.0)
        assert not gg.raw.is_off
        assert gg.raw.current_rate == 10.0


class TestDeadmanWatchdog:
    def test_controller_silence_is_detected(self):
        net, ctrl, _, guard = make_guarded()
        ctrl.stop()
        net.run(until_ns=100.0 * US)    # 10 guard epochs, zero decisions
        assert guard.controller_down_epochs >= 7

    def test_dead_controller_dark_group_is_woken_at_the_floor(self):
        log = DecisionLog()
        net, ctrl, _, guard = make_guarded(log=log)
        ctrl.stop()
        gg = ctrl.groups[0]
        for ch in gg.raw.channels:
            ch.power_off()
        net.run(until_ns=100.0 * US)
        assert not gg.raw.is_off
        assert gg.raw.current_rate == guard.floor
        assert guard.deadman_floors >= 1
        assert log.reason_counts[FAILSAFE_DEADMAN] >= 1

    def test_deadman_never_lowers_a_live_links_rate(self):
        net, ctrl, _, guard = make_guarded()
        ctrl.stop()
        rates_before = {gg.name: gg.raw.current_rate
                        for gg in ctrl.groups}
        net.run(until_ns=100.0 * US)
        for gg in ctrl.groups:
            assert gg.raw.current_rate >= rates_before[gg.name]

    def test_past_ttl_streak_triggers_the_deadman_too(self):
        net, ctrl, _, guard = make_guarded(
            chaos_scenario=dropout_scenario(0.0))
        gg = ctrl.groups[0]
        for ch in gg.raw.channels:
            ch.power_off()
        gg._inner.lost_streak = guard.config.staleness_ttl_epochs + 1
        guard._tend(gg, epoch=9, down=False)
        net.run(until_ns=5_000.0)
        assert not gg.raw.is_off
        assert guard.deadman_floors == 1


class TestPressureRelief:
    def setup_guard(self, queue_fraction=0.9, rate=10.0):
        _, ctrl, _, guard = make_guarded()
        gg = GuardedGroup(FakeInner(), guard)
        raw = FakeRaw(rate=rate, queue_fraction=queue_fraction)
        return guard, gg, raw

    def test_congested_dark_group_steps_one_ladder_rate_up(self):
        guard, gg, raw = self.setup_guard(rate=10.0)
        guard._maybe_relieve(gg, raw)
        # One rung up from 10 on the 2.5/5/10/20/40 ladder.
        assert raw.commands == [20.0]
        assert guard.pressure_ups == 1
        assert guard.reconfigurations == 1

    def test_quiet_queues_are_left_alone(self):
        guard, gg, raw = self.setup_guard(queue_fraction=0.2)
        guard._maybe_relieve(gg, raw)
        assert raw.commands == []
        assert guard.pressure_ups == 0

    def test_top_of_ladder_has_nowhere_to_go(self):
        guard, gg, raw = self.setup_guard(rate=40.0)
        guard._maybe_relieve(gg, raw)
        assert raw.commands == []

    def test_in_flight_rate_change_defers_relief(self):
        guard, gg, raw = self.setup_guard()
        raw.channels[0]._pending_rate = 20.0
        guard._maybe_relieve(gg, raw)
        assert raw.commands == []

    def test_relief_raises_the_hold_baseline(self):
        # A later veto must hold the relieved rate, not the stale one.
        guard, gg, raw = self.setup_guard(rate=10.0)
        gg._st.last_good_rate = 10.0
        guard._maybe_relieve(gg, raw)
        assert gg._st.last_good_rate == 20.0


class TestRetryWithBackoff:
    def test_lost_actuation_is_reissued(self):
        log = DecisionLog()
        _, ctrl, chaos, guard = make_guarded(
            chaos_scenario=ControlFaultScenario(
                name="t", loss=DecisionLoss(probability=1.0)),
            log=log)
        gg = ctrl.groups[0]
        st = gg._st
        before = gg.raw.current_rate
        # The command claims success but is dropped in flight.
        assert gg.set_rate(10.0, 1000.0) is True
        assert gg.raw.current_rate == before
        assert st.intended_rate == 10.0
        guard._maybe_retry(gg, gg.raw, st, epoch=st.intended_epoch + 1)
        assert guard.retries == 1
        assert chaos.actuations_lost == 2   # the retry was lost too
        assert log.reason_counts[FAILSAFE_RETRY] == 1

    def test_backoff_grows_exponentially_and_is_capped(self):
        _, ctrl, _, guard = make_guarded(
            chaos_scenario=ControlFaultScenario(
                name="t", loss=DecisionLoss(probability=1.0)))
        gg = ctrl.groups[0]
        st = gg._st
        gg.set_rate(10.0, 1000.0)
        gaps = []
        epoch = st.intended_epoch + 1
        for _ in range(6):
            guard._maybe_retry(gg, gg.raw, st, epoch=epoch)
            gaps.append(st.next_retry_epoch - epoch)
            epoch = st.next_retry_epoch
        cap = guard.config.retry_max_epochs
        for attempt, gap in enumerate(gaps, start=1):
            expected = min(cap, 2 ** (attempt - 1))
            assert expected <= gap <= expected + 1   # +1 = jitter bit
        assert guard.retries == 6

    def test_backoff_jitter_is_seed_deterministic(self):
        def gaps_for(seed_net):
            _, ctrl, _, guard = make_guarded(
                seed=seed_net,
                chaos_scenario=ControlFaultScenario(
                    name="t", loss=DecisionLoss(probability=1.0)))
            gg = ctrl.groups[0]
            st = gg._st
            gg.set_rate(10.0, 1000.0)
            out, epoch = [], st.intended_epoch + 1
            for _ in range(5):
                guard._maybe_retry(gg, gg.raw, st, epoch=epoch)
                out.append(st.next_retry_epoch - epoch)
                epoch = st.next_retry_epoch
            return out
        assert gaps_for(4) == gaps_for(4)

    def test_applied_command_needs_no_retry(self):
        _, ctrl, _, guard = make_guarded(
            chaos_scenario=dropout_scenario(0.0))
        gg = ctrl.groups[0]
        st = gg._st
        gg.set_rate(10.0, 1000.0)
        # The command is pending on the wire: judge it next epoch.
        guard._maybe_retry(gg, gg.raw, st, epoch=st.intended_epoch + 1)
        assert guard.retries == 0

    def test_too_early_retry_waits_an_epoch(self):
        _, ctrl, _, guard = make_guarded(
            chaos_scenario=ControlFaultScenario(
                name="t", loss=DecisionLoss(probability=1.0)))
        gg = ctrl.groups[0]
        st = gg._st
        gg.set_rate(10.0, 1000.0)
        guard._maybe_retry(gg, gg.raw, st, epoch=st.intended_epoch)
        assert guard.retries == 0


class TestCrashRecovery:
    def record(self, log, reason, group="up", t=100.0):
        log.record(time_ns=t, controller="c", group=group, channels=(),
                   old_rate=None, new_rate=None, reason=reason,
                   changed=False)

    def test_journal_tracks_gating_and_restarts(self):
        log = DecisionLog()
        _, ctrl, _, guard = make_guarded(log=log)
        self.record(log, GATED_OFF, group="g1", t=50.0)
        self.record(log, CONTROL_FAULT_RESTART, t=80.0)
        assert guard.power_journal.last_power["g1"] == ("off", 50.0)
        assert guard.power_journal.last_restart_ns == 80.0

    def test_pre_crash_gated_group_is_recovered(self):
        log = DecisionLog()
        net, ctrl, _, guard = make_guarded(log=log)
        gg = ctrl.groups[0]
        for ch in gg.raw.channels:
            ch.power_off()
        self.record(log, GATED_OFF, group=gg.name, t=50.0)
        self.record(log, CONTROL_FAULT_RESTART, t=80.0)
        guard._maybe_recover(gg, gg.raw, gg._st)
        net.run(until_ns=5_000.0)
        assert not gg.raw.is_off
        assert guard.recoveries == 1
        assert log.reason_counts[FAILSAFE_RECOVERED] == 1

    def test_group_gated_by_the_current_controller_is_left_alone(self):
        # Gated *after* the restart: the live controller owns it and
        # will probe it awake itself.
        log = DecisionLog()
        _, ctrl, _, guard = make_guarded(log=log)
        gg = ctrl.groups[0]
        for ch in gg.raw.channels:
            ch.power_off()
        self.record(log, CONTROL_FAULT_RESTART, t=80.0)
        self.record(log, GATED_OFF, group=gg.name, t=90.0)
        guard._maybe_recover(gg, gg.raw, gg._st)
        assert gg.raw.is_off
        assert guard.recoveries == 0

    def test_no_restart_seen_means_no_recovery(self):
        log = DecisionLog()
        _, ctrl, _, guard = make_guarded(log=log)
        gg = ctrl.groups[0]
        for ch in gg.raw.channels:
            ch.power_off()
        self.record(log, GATED_OFF, group=gg.name, t=50.0)
        guard._maybe_recover(gg, gg.raw, gg._st)
        assert gg.raw.is_off
        assert guard.recoveries == 0


class TestAuditInvariant:
    def test_transitions_sum_to_reconfigurations_under_chaos(self):
        # The guard's changed=True actions are counted in its own
        # reconfigurations and the summary sums controller + guard, so
        # the audit invariant must survive the full chaos stack.
        summary = run_simulation(replace(CHAOS_SPEC, failsafe=True))
        total = sum(count for _, _, count in summary.rate_transitions)
        assert total == summary.reconfigurations

    def test_config_knobs_are_respected(self):
        config = FailsafeConfig(staleness_ttl_epochs=5,
                                controller_timeout_epochs=4,
                                floor_rate=5.0)
        _, _, _, guard = make_guarded(config=config)
        assert guard.floor == 5.0
        assert guard.config.staleness_ttl_epochs == 5


class TestJournalBound:
    """The power-intent journal is hard-capped: a topology layer that
    invents transient group labels degrades to oldest-entry eviction,
    never to unbounded memory on a long-running control plane."""

    def record(self, log, group, t):
        log.record(time_ns=t, controller="c", group=group, channels=(),
                   old_rate=None, new_rate=None, reason=GATED_OFF,
                   changed=False)

    def test_cap_evicts_oldest_and_counts(self):
        log = DecisionLog()
        _, _, _, guard = make_guarded(
            config=FailsafeConfig(journal_cap=3), log=log)
        for i in range(5):
            self.record(log, f"g{i}", t=float(i))
        assert len(guard.power_journal.last_power) == 3
        assert set(guard.power_journal.last_power) == {"g2", "g3", "g4"}
        assert guard.power_journal.evictions == 2

    def test_reinserting_a_known_group_never_evicts(self):
        log = DecisionLog()
        _, _, _, guard = make_guarded(
            config=FailsafeConfig(journal_cap=2), log=log)
        self.record(log, "a", t=1.0)
        self.record(log, "b", t=2.0)
        for t in (3.0, 4.0, 5.0):
            self.record(log, "a", t=t)
        assert guard.power_journal.last_power == {"b": ("off", 2.0),
                                                  "a": ("off", 5.0)}
        assert guard.power_journal.evictions == 0

    def test_update_refreshes_age_order(self):
        log = DecisionLog()
        _, _, _, guard = make_guarded(
            config=FailsafeConfig(journal_cap=2), log=log)
        self.record(log, "a", t=1.0)
        self.record(log, "b", t=2.0)
        self.record(log, "a", t=3.0)  # a is now youngest
        self.record(log, "c", t=4.0)  # evicts b, not a
        assert set(guard.power_journal.last_power) == {"a", "c"}
        assert guard.power_journal.evictions == 1

    def test_eviction_counter_not_in_digest(self):
        # FailsafeGuard.digest() feeds the frozen chaos golden; the
        # bound is an internal safety valve, not a headline number.
        _, _, _, guard = make_guarded()
        assert "journal_evictions" not in guard.digest()

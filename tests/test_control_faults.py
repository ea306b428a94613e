"""Control-plane fault injection: the chaos layer itself.

Covers the declarative DSL (validation, the named-scenario registry),
the :class:`~repro.faults.control_faults.ChaosGroup` delivery pipeline
(stale -> corrupt -> dropout ordering, once-per-timestamp sampling),
the lying actuation path (lost/delayed commands still *claim*
success), controller crashes with cold restarts, and the determinism
the chaos campaign's golden file rests on — including independence
from ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.controller import ControllerConfig, EpochController
from repro.experiments.cache import summary_digest
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.faults.control_faults import (
    ChaosGroup,
    ControlFaultScenario,
    ControllerCrash,
    ControlPlaneChaos,
    CorruptReading,
    DecisionDelay,
    DecisionLoss,
    StaleTelemetry,
    TelemetryDropout,
    TelemetryFeed,
    build_control_scenario,
    register_control_scenario,
    registered_control_scenarios,
)
from repro.service import ServiceChaos, VirtualClock
from repro.service.streams import TelemetryRecord
from repro.service.transport import RateCommand
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import US

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: A compact chaos run: every fault class active, ~40 controller epochs.
CHAOS_SPEC = SimulationSpec(k=2, n=2, duration_ns=400_000.0,
                            control="epoch",
                            control_faults="ctl_chaos_mid",
                            fault_seed=9)


def make_controlled(seed=4, epoch_ns=10.0 * US):
    net = FbflyNetwork(FlattenedButterfly(k=2, n=3),
                       NetworkConfig(seed=seed))
    ctrl = EpochController(net, config=ControllerConfig(epoch_ns=epoch_ns))
    return net, ctrl


def attach(ctrl, **scenario_fields):
    scenario = ControlFaultScenario(name="t", **scenario_fields)
    return ControlPlaneChaos(ctrl, scenario)


class TestDSLValidation:
    def test_corrupt_kind_is_validated(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            CorruptReading(kind="flip")

    def test_scenarios_are_frozen(self):
        with pytest.raises(Exception):
            TelemetryDropout().probability = 0.2

    def test_builtin_scenarios_are_registered(self):
        names = registered_control_scenarios()
        assert names == sorted(names)
        for expected in ("ctl_dropout", "ctl_stale", "ctl_corrupt",
                         "ctl_lossy", "ctl_crash", "ctl_chaos_low",
                         "ctl_chaos_mid", "ctl_chaos_high"):
            assert expected in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_control_scenario("ctl_dropout", lambda spec: None)

    def test_unknown_scenario_names_the_registry(self):
        with pytest.raises(ValueError, match="ctl_dropout"):
            build_control_scenario("ctl_nope", CHAOS_SPEC)

    def test_builders_are_seeded_and_windowed_by_the_spec(self):
        scenario = build_control_scenario("ctl_dropout", CHAOS_SPEC)
        assert scenario.seed == CHAOS_SPEC.fault_seed
        assert scenario.dropout.end_ns == pytest.approx(
            0.8 * CHAOS_SPEC.duration_ns)


class TestDeliveryPipeline:
    """The injector's telemetry pipeline is the single seam every
    reading goes through."""

    def deliver(self, chaos, epoch, now, true, *older):
        """``true`` at ``epoch`` through the pipeline, after ``older``
        ``(epoch, reading)`` entries: ``(reading, status, age)``."""
        feed = TelemetryFeed("g", chaos.history_depth)
        feed.history.extend(older)
        return chaos._telemetry(feed, epoch, now, true)

    def test_clean_scenario_passes_readings_through(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl)
        true = (0.7, 0.4, 2)
        reading, status, age = self.deliver(chaos, 5, 50_000.0, true)
        assert (reading, status, age) == (true, "ok", 0)

    def test_dropout_zeroes_the_reading(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, dropout=TelemetryDropout(probability=1.0))
        true = (0.7, 0.4, 2)
        reading, status, _ = self.deliver(chaos, 5, 50_000.0, true)
        assert status == "lost"
        assert reading == (0.0, 0.0, 0)

    def test_stale_delivers_the_old_report_with_its_age(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, stale=StaleTelemetry(epochs=2))
        old, new = (0.9, 0.8, 7), (0.1, 0.1, 0)
        reading, status, age = self.deliver(
            chaos, 5, 50_000.0, new, (3, old), (4, (0.5, 0.5, 1)))
        assert status == "stale"
        assert reading == old
        assert age == 2

    def test_corruption_mangles_the_stale_report_not_the_fresh_one(self):
        # Pipeline order: staleness picks the in-flight report,
        # corruption mangles *that* one.
        _, ctrl = make_controlled()
        chaos = attach(ctrl, stale=StaleTelemetry(epochs=1),
                       corrupt=CorruptReading(kind="scale", factor=2.0))
        old, new = (0.3, 0.2, 4), (0.1, 0.1, 0)
        reading, status, _ = self.deliver(chaos, 5, 50_000.0, new,
                                          (4, old))
        assert status == "corrupt"
        assert reading == (pytest.approx(0.6), pytest.approx(0.4), 4)

    def test_stuck_corruption_pins_util_and_queue(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, corrupt=CorruptReading(kind="stuck",
                                                    value=1.0))
        reading, status, _ = self.deliver(chaos, 5, 50_000.0,
                                          (0.1, 0.1, 3))
        assert status == "corrupt"
        assert reading == (1.0, 1.0, 0)

    def test_dropout_outranks_stale_and_corrupt(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, stale=StaleTelemetry(epochs=1),
                       corrupt=CorruptReading(kind="stuck", value=1.0),
                       dropout=TelemetryDropout(probability=1.0))
        _, status, _ = self.deliver(chaos, 5, 50_000.0, (0.5, 0.5, 0),
                                    (4, (0.2, 0.2, 0)))
        assert status == "lost"

    def test_window_gates_activity(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, dropout=TelemetryDropout(
            probability=1.0, start_ns=100_000.0, end_ns=200_000.0))
        true = (0.5, 0.5, 0)
        assert self.deliver(chaos, 1, 50_000.0, true)[1] == "ok"
        assert self.deliver(chaos, 1, 150_000.0, true)[1] == "lost"
        assert self.deliver(chaos, 1, 250_000.0, true)[1] == "ok"


class TestChaosGroupSampling:
    def test_reads_sample_the_wrapped_group_once_per_timestamp(self):
        # The underlying counters are delta-based: double-consuming
        # them in one epoch would corrupt the telemetry even with no
        # fault active.
        _, ctrl = make_controlled()
        chaos = attach(ctrl, stale=StaleTelemetry())
        cgroup = ctrl.groups[0]
        assert isinstance(cgroup, ChaosGroup)
        epoch_ns = chaos.epoch_ns
        first = cgroup.utilization_since_last(epoch_ns)
        assert cgroup.utilization_since_last(epoch_ns) == first
        assert cgroup.max_queue_fraction() == cgroup._delivered[1]
        assert len(cgroup.history) == 1

    def test_wrapping_replaces_every_group_and_delegates(self):
        _, ctrl = make_controlled()
        attach(ctrl)
        for cgroup in ctrl.groups:
            assert isinstance(cgroup, ChaosGroup)
            assert cgroup.current_rate == cgroup.raw.current_rate
            assert cgroup.is_off == cgroup.raw.is_off
            assert cgroup.channels is cgroup.raw.channels

    def test_lost_streak_tracks_consecutive_losses(self):
        net, ctrl = make_controlled()
        attach(ctrl, dropout=TelemetryDropout(probability=1.0))
        net.run(until_ns=45.0 * US)   # 4 epochs, every report lost
        cgroup = ctrl.groups[0]
        assert cgroup.delivered_ok is False
        assert cgroup.lost_streak >= 3
        assert cgroup.staleness_epochs == cgroup.lost_streak


class TestLyingActuation:
    def test_lost_command_claims_success_but_changes_nothing(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, loss=DecisionLoss(probability=1.0))
        cgroup = ctrl.groups[0]
        before = cgroup.raw.current_rate
        target = 10.0
        assert target != before
        claimed = cgroup.set_rate(target, ctrl.config.reactivation_ns)
        assert claimed is True            # the lie
        assert cgroup.raw.current_rate == before
        for ch in cgroup.raw.channels:
            assert ch._pending_rate is None
        assert chaos.actuations_lost == 1

    def test_lost_no_op_command_claims_no_change(self):
        # The fabricated claim must be *plausible*: re-commanding the
        # current rate would have returned False, so the lie does too.
        _, ctrl = make_controlled()
        chaos = attach(ctrl, loss=DecisionLoss(probability=1.0))
        cgroup = ctrl.groups[0]
        current = cgroup.raw.current_rate
        assert cgroup.set_rate(current, ctrl.config.reactivation_ns) is False
        assert chaos.actuations_lost == 1

    def test_delayed_command_applies_late(self):
        net, ctrl = make_controlled()
        chaos = attach(ctrl, delay=DecisionDelay(epochs=2,
                                                 probability=1.0))
        ctrl.stop()   # only the hand-issued command below is in play
        cgroup = ctrl.groups[0]
        before = cgroup.raw.current_rate
        claimed = cgroup.set_rate(10.0, ctrl.config.reactivation_ns)
        assert claimed is True
        assert cgroup.raw.current_rate == before    # not yet
        net.run(until_ns=2 * chaos.epoch_ns + ctrl.config.reactivation_ns
                + 1000.0)
        assert cgroup.raw.current_rate == 10.0      # landed late
        assert chaos.actuations_delayed == 1


class TestControllerLifetime:
    def test_crash_stops_the_controller_for_good(self):
        net, ctrl = make_controlled()
        chaos = attach(ctrl, crashes=(ControllerCrash(time_ns=25.0 * US),))
        net.run(until_ns=200.0 * US)
        assert chaos.crashes == 1
        assert chaos.restarts == 0
        assert ctrl._stopped
        # Died after epoch 2; an idle fabric froze mid-downgrade
        # instead of reaching the floor.
        assert ctrl.epochs_run == 2
        for ch in net.tunable_channels():
            assert ch.rate_gbps > 2.5

    def test_restart_resumes_with_cold_state(self):
        net, ctrl = make_controlled()
        chaos = attach(ctrl, crashes=(
            ControllerCrash(time_ns=25.0 * US, restart_after_epochs=3),))
        net.run(until_ns=300.0 * US)
        assert chaos.crashes == 1
        assert chaos.restarts == 1
        assert not ctrl._stopped
        # The reborn controller drives the idle fabric to the floor.
        for ch in net.tunable_channels():
            assert ch.rate_gbps == 2.5


class TestDeterminism:
    def test_draws_are_stateless_and_order_independent(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, seed=13)
        a = chaos._draw("dropout", "g1", 7)
        chaos._draw("dropout", "g2", 1)   # interleaved other draws
        chaos._draw("loss", "g1", 7)
        assert chaos._draw("dropout", "g1", 7) == a

    def test_group_selection_is_stable_within_a_run(self):
        _, ctrl = make_controlled()
        chaos = attach(ctrl, seed=13)
        picks = {name: chaos._affected("dropout", name, 0.5)
                 for name in ("a", "b", "c", "d", "e", "f", "g", "h")}
        assert any(picks.values()) and not all(picks.values())
        for name, value in picks.items():
            assert chaos._affected("dropout", name, 0.5) == value

    def test_repeat_chaos_runs_are_bit_identical(self):
        first = json.dumps(summary_digest(run_simulation(CHAOS_SPEC)),
                           sort_keys=True)
        second = json.dumps(summary_digest(run_simulation(CHAOS_SPEC)),
                            sort_keys=True)
        assert first == second

    def test_fault_seed_steers_the_chaos(self):
        a = summary_digest(run_simulation(CHAOS_SPEC))
        b = summary_digest(run_simulation(replace(CHAOS_SPEC,
                                                  fault_seed=10)))
        assert a != b

    def test_failsafe_arm_shares_the_exact_fault_process(self):
        # The campaign compares protected vs unprotected arms of the
        # *same* chaos: the injected-fault accounting must match.
        plain = run_simulation(CHAOS_SPEC)
        guarded = run_simulation(replace(CHAOS_SPEC, failsafe=True))
        assert plain.control_plane["scenario"] == \
            guarded.control_plane["scenario"]
        assert plain.control_plane["crashes"] == \
            guarded.control_plane["crashes"]

    def test_hash_randomization_does_not_leak_into_chaos_runs(self):
        expected = json.dumps(summary_digest(run_simulation(CHAOS_SPEC)),
                              sort_keys=True)
        code = (
            "import json;"
            "from repro.experiments.cache import summary_digest;"
            "from repro.experiments.runner import SimulationSpec,"
            " run_simulation;"
            "spec = SimulationSpec(k=2, n=2, duration_ns=400_000.0,"
            " control='epoch', control_faults='ctl_chaos_mid',"
            " fault_seed=9);"
            "print(json.dumps(summary_digest(run_simulation(spec)),"
            " sort_keys=True))"
        )
        for hash_seed in ("1", "987654321"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC_DIR)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout.strip()
            assert out == expected, f"drift under PYTHONHASHSEED={hash_seed}"


SELECTION_KINDS = ("stale", "corrupt", "dropout", "loss", "delay")


def make_selector(layer, seed):
    """A chaos layer, its group names and its selection seed prefix."""
    if layer == "sim":
        _, ctrl = make_controlled()
        return (attach(ctrl, seed=seed), [g.name for g in ctrl.groups],
                "ctlsel")
    scenario = ControlFaultScenario(name="t", seed=seed)
    return (ServiceChaos(VirtualClock(), scenario=scenario),
            [f"g{i}" for i in range(24)], "svcsel")


@pytest.mark.parametrize("layer", ["sim", "service"])
class TestSelectionMemo:
    """The per-run group selection is drawn once per (kind, group) and
    must equal the fresh string-seeded draw it replaces."""

    @pytest.mark.parametrize("seed", [3, 11])
    def test_memo_matches_a_fresh_draw(self, layer, seed):
        chaos, groups, prefix = make_selector(layer, seed)
        for _ in range(2):   # the second sweep is served from the memo
            for kind in SELECTION_KINDS:
                for group in groups:
                    fresh = random.Random(
                        f"{prefix}:{seed}:{kind}:{group}").random()
                    assert chaos._affected(kind, group, 0.5) == \
                        (fresh < 0.5)
                    assert chaos._affected(kind, group, 0.0) is False
                    assert chaos._affected(kind, group, 1.0) is True
        assert len(chaos._selection) <= len(SELECTION_KINDS) * len(groups)


class SimDriver:
    """The simulator driver: readings are ``(util, queue, stalls)``
    tuples fed straight to the injector with a :class:`ChaosGroup` as
    the feed (its reads need a running fabric), draws indexed by
    epoch."""

    epoch_ns = 10.0 * US
    #: A lost report reads as idleness.
    lost = (0.0, 0.0, 0)

    def __init__(self, **faults):
        _, self.ctrl = make_controlled(epoch_ns=self.epoch_ns)
        self.chaos = attach(self.ctrl, **faults)
        self.group = self.ctrl.groups[0]

    def send(self, epoch, util, queue=0.5):
        """One reading at ``epoch``, as delivered."""
        return self.chaos._telemetry(self.group, epoch,
                                     epoch * self.epoch_ns,
                                     (util, queue, 3))[0]

    @staticmethod
    def util(reading):
        return reading[0]

    def lost_streak(self):
        return self.group.lost_streak

    def command(self):
        """One rate command through ``set_rate``."""
        self.group.set_rate(10.0, self.ctrl.config.reactivation_ns)


class ServiceDriver:
    """The service driver: readings are :class:`TelemetryRecord`
    objects, draws indexed by epoch (telemetry) and seq (commands)."""

    epoch_ns = 1e9
    #: A lost record never reaches the stream.
    lost = None

    def __init__(self, **faults):
        self.chaos = ServiceChaos(
            VirtualClock(), ControlFaultScenario(name="t", **faults),
            epoch_ns=self.epoch_ns)
        self.seq = 0

    def send(self, epoch, util, queue=0.5):
        self.seq += 1
        return self.chaos.deliver(TelemetryRecord(
            seq=self.seq, epoch=epoch, group="g",
            time_ns=epoch * self.epoch_ns, demand_gbps=4.0,
            utilization=util, queue_fraction=queue, is_off=False))

    @staticmethod
    def util(record):
        return record.utilization

    def lost_streak(self):
        return self.chaos._feeds["g"].lost_streak

    def command(self):
        self.seq += 1
        return self.chaos.actuation_fate(RateCommand(
            seq=self.seq, group="g", rate_gbps=10.0, epoch=0,
            time_ns=0.0))


DRIVERS = {"sim": SimDriver, "service": ServiceDriver}


@pytest.mark.parametrize("layer", ["sim", "service"])
class TestSharedInjector:
    """Both drivers apply a scenario through the one injector: the
    same picks, counts and outcome rule, on each driver's reading."""

    def test_stale_pick_takes_the_age_and_falls_back_to_the_oldest(
            self, layer):
        driver = DRIVERS[layer](stale=StaleTelemetry(epochs=2))
        delivered = [driver.util(driver.send(epoch, epoch / 10))
                     for epoch in range(6)]
        # Epochs 1 and 2 have no report two epochs old yet and get the
        # oldest one held; from epoch 2 on, the report is two old.
        assert delivered == [0.0, 0.0, 0.0, 0.1, 0.2, 0.3]
        assert driver.chaos.telemetry_stale == 5

    def test_stuck_corruption_pins_the_reading(self, layer):
        driver = DRIVERS[layer](corrupt=CorruptReading(kind="stuck",
                                                       value=0.8))
        reading = driver.send(3, 0.1, queue=0.2)
        if layer == "sim":
            assert reading == (0.8, 0.8, 0)
        else:
            assert (reading.utilization, reading.queue_fraction,
                    reading.demand_gbps, reading.epoch) == (
                        0.8, 0.8, pytest.approx(3.2), 3)
        assert driver.chaos.telemetry_corrupt == 1

    def test_scale_corruption_scales_the_reading(self, layer):
        driver = DRIVERS[layer](corrupt=CorruptReading(kind="scale",
                                                       factor=2.0))
        reading = driver.send(3, 0.1, queue=0.2)
        if layer == "sim":
            assert reading == (pytest.approx(0.2), pytest.approx(0.4), 3)
        else:
            assert (reading.utilization, reading.queue_fraction,
                    reading.demand_gbps) == (
                        pytest.approx(0.2), pytest.approx(0.4),
                        pytest.approx(8.0))
        assert driver.chaos.telemetry_corrupt == 1

    def test_dropout_streak_and_its_maximum(self, layer):
        cls = DRIVERS[layer]
        driver = cls(dropout=TelemetryDropout(
            probability=1.0, start_ns=0.5 * cls.epoch_ns,
            end_ns=3.5 * cls.epoch_ns))
        streaks, lost = [], []
        for epoch in range(6):
            reading = driver.send(epoch, 0.7)
            lost.append(reading == driver.lost)
            streaks.append(driver.lost_streak())
        assert lost == [False, True, True, True, False, False]
        assert streaks == [0, 1, 2, 3, 0, 0]
        assert driver.chaos.telemetry_lost == 3
        assert driver.chaos.max_lost_streak == 3

    @pytest.mark.parametrize("loss_p, fate", [(1.0, "lost"),
                                              (0.0, "delayed")])
    def test_loss_outranks_delay(self, layer, loss_p, fate):
        driver = DRIVERS[layer](loss=DecisionLoss(probability=loss_p),
                                delay=DecisionDelay(epochs=2,
                                                    probability=1.0))
        outcome = driver.command()
        assert (driver.chaos.actuations_lost,
                driver.chaos.actuations_delayed) == (
                    (1, 0) if fate == "lost" else (0, 1))
        if layer == "service":
            assert outcome == (fate, 0.0 if fate == "lost"
                               else 2 * driver.epoch_ns)

    def test_one_outcome_per_reading_the_last_stage_wins(self, layer):
        driver = DRIVERS[layer](stale=StaleTelemetry(epochs=1),
                                dropout=TelemetryDropout(probability=1.0))
        for epoch in range(5):
            assert driver.send(epoch, 0.5) == driver.lost
        digest = driver.chaos.digest()
        assert (digest["telemetry_lost"], digest["telemetry_stale"]) == (
            5, 0)
        assert digest["max_lost_streak"] == 5


class TestRunnerWiring:
    def test_control_faults_without_controller_is_an_error(self):
        with pytest.raises(ValueError, match="control_faults"):
            run_simulation(replace(CHAOS_SPEC, control="none"))

    def test_summary_carries_the_injection_digest(self):
        summary = run_simulation(CHAOS_SPEC)
        cp = summary.control_plane
        assert cp["scenario"] == "ctl_chaos_mid"
        assert cp["telemetry_lost"] > 0
        assert cp["crashes"] == 1
        assert cp["restarts"] == 1
        assert cp["failsafe"] is None

"""The controller decision audit log."""

import copy
import dataclasses
import inspect
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig, EpochController
from repro.core.safety import PowerJournal
from repro.experiments.runner import SimulationSpec, run_simulation
from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
    DecisionLoss,
    TelemetryDropout,
)
from repro.core.lane_controller import LaneAwareController, LaneControllerConfig
from repro.core.local_controller import SwitchLocalControllers
from repro.obs.decisions import (
    ABOVE_THRESHOLD,
    BELOW_THRESHOLD,
    CLAMPED_MAX,
    CLAMPED_MIN,
    HOLD,
    POWERED_OFF,
    REACTIVATION_PENDING,
    REASONS,
    Decision,
    DecisionLog,
    classify_reason,
)
from repro.obs.session import Telemetry
from repro.power.link_rates import DEFAULT_RATE_LADDER
from repro.service.service import ControlPlaneService, ServiceConfig
from repro.sim.network import FbflyNetwork, NetworkConfig
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.units import MS, US
from repro.workloads.uniform import UniformRandomWorkload


def make_network(seed=19):
    return FbflyNetwork(FlattenedButterfly(k=2, n=3),
                        NetworkConfig(seed=seed))


class _Policy:
    target_utilization = 0.5


class TestClassifyReason:
    LADDER = DEFAULT_RATE_LADDER

    def test_speedup_is_above_threshold(self):
        assert classify_reason(10.0, 20.0, True, 0.9,
                               self.LADDER, _Policy()) == ABOVE_THRESHOLD

    def test_slowdown_is_below_threshold(self):
        assert classify_reason(20.0, 10.0, True, 0.1,
                               self.LADDER, _Policy()) == BELOW_THRESHOLD

    def test_unchanged_busy_change_is_reactivation_pending(self):
        # decide() asked for a different rate but set_rate was refused
        # (mid-reactivation): changed=False with new != current.
        assert classify_reason(10.0, 20.0, False, 0.9,
                               self.LADDER, _Policy()) == REACTIVATION_PENDING

    def test_hold_at_top_of_ladder_is_clamped_max(self):
        top = self.LADDER.max_rate
        assert classify_reason(top, top, False, 0.99,
                               self.LADDER, _Policy()) == CLAMPED_MAX

    def test_hold_at_bottom_of_ladder_is_clamped_min(self):
        bottom = self.LADDER.min_rate
        assert classify_reason(bottom, bottom, False, 0.0,
                               self.LADDER, _Policy()) == CLAMPED_MIN

    def test_mid_ladder_hold(self):
        assert classify_reason(10.0, 10.0, False, 0.5,
                               self.LADDER, _Policy()) == HOLD

    def test_all_reasons_enumerated(self):
        assert set(REASONS) >= {ABOVE_THRESHOLD, BELOW_THRESHOLD,
                                REACTIVATION_PENDING, CLAMPED_MAX,
                                CLAMPED_MIN, HOLD, POWERED_OFF}


def _decision(i, reason=HOLD, old=10.0, new=10.0, changed=False):
    """One decision's fields, as ``DecisionLog.record`` takes them."""
    return dict(time_ns=float(i), controller="epoch", group=f"g{i}",
                channels=(f"c{i}",), old_rate=old, new_rate=new,
                reason=reason, changed=changed)


class TestDecisionLog:
    def test_counters_and_ring(self):
        log = DecisionLog(max_records=2)
        log.record(**_decision(0))
        log.record(**_decision(1, reason=ABOVE_THRESHOLD, old=10.0,
                             new=20.0, changed=True))
        log.record(**_decision(2))
        # Ring keeps only the newest two, counters stay exact.
        assert len(log) == 2
        assert log.decisions_recorded == 3
        assert log.reason_counts[HOLD] == 2
        assert log.reason_counts[ABOVE_THRESHOLD] == 1
        assert log.transitions_recorded == 1
        assert log.transition_counts_list() == [[10.0, 20.0, 1]]

    def test_counters_only_mode_keeps_no_records(self):
        log = DecisionLog(max_records=0)
        log.record(**_decision(0, reason=BELOW_THRESHOLD, old=20.0,
                             new=10.0, changed=True))
        assert len(log) == 0
        assert log.decisions_recorded == 1
        assert log.transitions_recorded == 1

    def test_counters_only_mode_still_feeds_every_tap(self):
        log = DecisionLog(max_records=0)
        seen = []
        log.taps.append(lambda *payload: seen.append(payload))
        records = [_decision(i) for i in range(3)]
        for record in records:
            log.record(**record)
        assert seen == [(r["reason"], r["group"], r["time_ns"],
                         r["changed"]) for r in records]
        assert len(log) == 0

    def test_transitions_and_group_filters(self):
        log = DecisionLog()
        log.record(**_decision(0))
        log.record(**_decision(1, reason=BELOW_THRESHOLD, old=20.0,
                             new=10.0, changed=True))
        assert [d.group for d in log.transitions()] == ["g1"]

    def test_unknown_reason_raises(self):
        log = DecisionLog()
        with pytest.raises(ValueError, match="unknown decision reason"):
            log.record(**_decision(0, reason="tpyo_reason"))
        # A rejected record must leave no trace in any aggregate.
        assert log.decisions_recorded == 0
        assert log.reason_counts == {}
        assert len(log) == 0

    def test_every_documented_reason_is_accepted(self):
        log = DecisionLog()
        for i, reason in enumerate(REASONS):
            log.record(**_decision(i, reason=reason))
        assert log.decisions_recorded == len(REASONS)
        assert set(log.reason_counts) == set(REASONS)

    def test_forecast_reasons_are_registered(self):
        assert {"forecast_ramp_up", "forecast_hold",
                "forecast_miss"} <= set(REASONS)

    def test_format_line_mentions_counts(self):
        log = DecisionLog()
        log.record(**_decision(0))
        line = log.format_line()
        assert "1 decision" in line
        assert HOLD in line

    def test_decision_to_dict_round_trips_json(self):
        d = Decision(**_decision(3, reason=ABOVE_THRESHOLD, old=10.0,
                                 new=20.0, changed=True))
        payload = json.loads(json.dumps(d.to_dict()))
        assert payload["reason"] == ABOVE_THRESHOLD
        assert payload["old_rate"] == 10.0
        assert payload["new_rate"] == 20.0


#: One value per Decision field, every one distinct from its default.
FULL_DECISION = dict(
    time_ns=5.0, controller="sw3", group="g7", channels=("a", "b"),
    old_rate=10.0, new_rate=20.0, reason=ABOVE_THRESHOLD, changed=True,
    estimate=0.75, utilization=0.6, queue_fraction=0.25, credit_stalls=3,
    reactivation_ns=1000.0, old_mode="x1", new_mode="x4",
    forecast_gbps=12.5, observed_gbps=11.0)


class TestDecisionInitializer:
    """Decision's hand-written initializer must stay the dataclass's."""

    def test_signature_is_the_field_list(self):
        params = list(
            inspect.signature(Decision.__init__).parameters.values())[1:]
        fields = dataclasses.fields(Decision)
        assert [p.name for p in params] == [f.name for f in fields]
        for param, field in zip(params, fields):
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            if field.default is dataclasses.MISSING:
                assert param.default is param.empty, field.name
            else:
                assert param.default == field.default, field.name
                assert type(param.default) is type(field.default)

    def test_field_values_cover_every_field(self):
        assert list(FULL_DECISION) == [
            f.name for f in dataclasses.fields(Decision)]

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = Decision(**FULL_DECISION)
        by_position = Decision(*FULL_DECISION.values())
        assert by_keyword == by_position
        assert vars(by_keyword) == FULL_DECISION
        assert list(vars(by_keyword)) == list(FULL_DECISION)

    def test_defaults_fill_the_optional_fields(self):
        required = {f.name: FULL_DECISION[f.name]
                    for f in dataclasses.fields(Decision)
                    if f.default is dataclasses.MISSING}
        d = Decision(**required)
        for field in dataclasses.fields(Decision):
            expected = (FULL_DECISION[field.name]
                        if field.name in required else field.default)
            assert getattr(d, field.name) == expected
        with pytest.raises(TypeError):
            Decision(*list(required.values())[:-1])

    def test_equality_hash_and_repr(self):
        a, b = Decision(**FULL_DECISION), Decision(**FULL_DECISION)
        assert a == b and hash(a) == hash(b)
        other = dataclasses.replace(a, group="g8")
        assert other != a and other.group == "g8"
        assert repr(a) == "Decision(" + ", ".join(
            f"{name}={value!r}" for name, value in FULL_DECISION.items()
        ) + ")"

    def test_round_trips(self):
        d = Decision(**FULL_DECISION)
        assert dataclasses.asdict(d) == FULL_DECISION
        assert d.to_dict() == {**FULL_DECISION, "channels": ["a", "b"]}
        assert dataclasses.replace(d) == d
        for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d),
                      copy.copy(d)):
            assert clone == d and clone is not d
            assert vars(clone) == FULL_DECISION

    def test_assignment_is_refused(self):
        d = Decision(**FULL_DECISION)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.reason = HOLD
        with pytest.raises(dataclasses.FrozenInstanceError):
            del d.group
        assert d.reason == ABOVE_THRESHOLD


_FIELDS = dataclasses.fields(Decision)
_RATE = st.one_of(st.none(), st.sampled_from([2.5, 5.0, 10.0, 20.0, 40.0]))
_AMOUNT = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_MODE = st.one_of(st.none(), st.sampled_from(["x1", "x2", "x4"]))

#: One decision's fields: the required ones always, each optional one
#: sometimes (left out, it takes its default).
_DECISION_FIELDS = st.fixed_dictionaries(
    {"time_ns": _AMOUNT,
     "controller": st.sampled_from(["epoch", "chaos", "service"]),
     "group": st.sampled_from(["g0", "g1", "g2"]),
     "channels": st.lists(st.sampled_from(["a", "b", "c"]),
                          max_size=2).map(tuple),
     "old_rate": _RATE, "new_rate": _RATE,
     "reason": st.sampled_from(REASONS), "changed": st.booleans()},
    optional={"estimate": _AMOUNT, "utilization": _AMOUNT,
              "queue_fraction": _AMOUNT,
              "credit_stalls": st.integers(min_value=0, max_value=100),
              "reactivation_ns": _AMOUNT, "old_mode": _MODE,
              "new_mode": _MODE, "forecast_gbps": _RATE,
              "observed_gbps": _RATE})

_UNKNOWN_REASON = st.text(min_size=1, max_size=12).filter(
    lambda reason: reason not in REASONS)


def _full(fields):
    """Every field's value in field order, defaults filled in."""
    return tuple(fields.get(f.name, f.default) for f in _FIELDS)


def _state(log):
    return (log.decisions_recorded, dict(log.reason_counts),
            dict(log.transition_counts), len(log))


class TestCountersOnlyAudit:
    """``DecisionLog.record`` takes a decision's fields and builds a
    :class:`Decision` only when the ring keeps it; both modes must
    count and tap the same."""

    def test_record_signature_is_the_field_list(self):
        params = list(inspect.signature(
            DecisionLog.record).parameters.values())[1:]
        assert [p.name for p in params] == [f.name for f in _FIELDS]
        for param, field in zip(params, _FIELDS):
            assert param.kind is param.POSITIONAL_OR_KEYWORD
            if field.default is dataclasses.MISSING:
                assert param.default is param.empty, field.name
            else:
                assert param.default == field.default, field.name
                assert type(param.default) is type(field.default)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_DECISION_FIELDS, max_size=30),
           st.lists(st.tuples(st.integers(min_value=0), _UNKNOWN_REASON),
                    max_size=3))
    def test_every_mode_counts_and_taps_the_same(self, records, bad):
        logs = (DecisionLog(max_records=0), DecisionLog(max_records=None))
        taps = ([], [])
        for log, seen in zip(logs, taps):
            log.taps.append(lambda *payload, seen=seen:
                            seen.append(payload))
        rejected = {i % (len(records) + 1): reason for i, reason in bad}
        for i in range(len(records) + 1):
            if i in rejected:
                for log in logs:
                    before = _state(log)
                    # changed=True: a late check would move the
                    # transition counts too.
                    with pytest.raises(ValueError,
                                       match="unknown decision reason"):
                        log.record(0.0, "c", "g", (), 10.0, 20.0,
                                   rejected[i], True)
                    assert _state(log) == before
            if i == len(records):
                break
            fields = records[i]
            # Positional with every field, and keyword with the
            # optional ones left to their defaults.
            logs[0].record(*_full(fields))
            logs[1].record(**fields)
        expected = [Decision(*_full(fields)) for fields in records]
        assert _state(logs[0])[:3] == _state(logs[1])[:3]
        assert logs[0].decisions_recorded == len(records)
        assert taps[0] == taps[1] == [
            (d.reason, d.group, d.time_ns, d.changed) for d in expected]
        assert len(logs[0]) == 0
        assert list(logs[1].records) == expected
        assert [vars(d) for d in logs[1].records] == [
            dict(zip([f.name for f in _FIELDS], _full(fields)))
            for fields in records]

    def test_counters_only_log_builds_no_decision(self, monkeypatch):
        import repro.obs.decisions as decisions
        built = []

        class Counting(Decision):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(decisions, "Decision", Counting)
        counters_only = DecisionLog(max_records=0)
        retaining = DecisionLog(max_records=1)
        for log in (counters_only, retaining):
            log.record(**_decision(0))
        assert len(built) == 1
        assert [vars(d) for d in retaining.records] == [
            vars(Decision(**_decision(0)))]


def _control_chaos_spec():
    """The control-chaos spec ``tests/test_decision_stream.py`` pins."""
    return SimulationSpec(
        k=4, n=3, workload="shifting", uniform_offered_load=0.25,
        control="demand_topo", policy="ladder", reactivation_ns=0.1 * US,
        faults="flap", control_faults="ctl_chaos_mid", failsafe=True,
        inject_fraction=0.5, duration_ns=200 * US, seed=1, fault_seed=1)


def _service_run(max_records):
    """The 8-group service run ``tests/test_decision_stream.py`` pins."""
    config = ServiceConfig(groups=8, epochs=240, seed=1)
    quarter_ns = config.duration_ns / 4
    scenario = ControlFaultScenario(
        name="pin", seed=1,
        dropout=TelemetryDropout(fraction=0.6, probability=0.95,
                                 start_ns=0.2 * quarter_ns,
                                 end_ns=2.4 * quarter_ns),
        loss=DecisionLoss(probability=0.3, start_ns=0.1 * quarter_ns),
        crashes=(ControllerCrash(time_ns=3.2 * quarter_ns),))
    log = DecisionLog(max_records=max_records)
    service = ControlPlaneService(config, scenario=scenario,
                                  decision_log=log)
    service.run()
    return log, service


class TestRunLevelAudit:
    """Whole runs audit the same whether the log keeps records or not."""

    def test_control_chaos_counts_and_journal_agree(self):
        outcomes = []
        for max_records in (0, None):
            log = DecisionLog(max_records=max_records)
            run_simulation(_control_chaos_spec(),
                           telemetry=Telemetry(decision_log=log))
            journal, = [tap.__self__ for tap in log.taps
                        if isinstance(tap.__self__, PowerJournal)]
            outcomes.append((log.decisions_recorded, log.reason_counts,
                             log.transition_counts, journal.last_power,
                             journal.last_restart_ns))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 50913 and outcomes[0][3]

    def test_service_counts_and_power_journal_agree(self):
        (lean, lean_service), (full, full_service) = (
            _service_run(0), _service_run(None))
        assert len(lean) == 0 and len(full) == full.decisions_recorded
        assert lean.decisions_recorded == full.decisions_recorded == 2752
        assert lean.reason_counts == full.reason_counts
        assert lean.transition_counts == full.transition_counts
        assert (lean_service.power_journal.last_power
                == full_service.power_journal.last_power)
        assert lean_service.power_journal.last_power


class TestEpochControllerAudit:
    def _run(self, independent=False, until=0.5 * MS):
        net = make_network()
        log = DecisionLog()
        controller = EpochController(
            net,
            config=ControllerConfig(independent_channels=independent),
            decision_log=log)
        net.attach_workload(
            UniformRandomWorkload(net.topology.num_hosts,
                                  seed=3).events(until))
        net.run(until_ns=until)
        return net, controller, log

    def test_every_rate_change_is_audited(self):
        _, controller, log = self._run()
        assert controller.reconfigurations > 0
        assert log.transitions_recorded == controller.reconfigurations
        assert sum(count for _, _, count
                   in log.transition_counts_list()) \
            == controller.reconfigurations

    def test_independent_channels_audited_too(self):
        _, controller, log = self._run(independent=True)
        assert log.transitions_recorded == controller.reconfigurations

    def test_epochs_are_marked(self):
        net, _, log = self._run()
        assert len(log.epochs) > 0
        assert log.decisions_recorded >= len(log.epochs)

    def test_reasons_are_canonical(self):
        _, _, log = self._run()
        assert set(log.reason_counts) <= set(REASONS)

    def test_decision_log_does_not_perturb_simulation(self):
        net_a, _, _ = self._run()
        net_b = make_network()
        controller_b = EpochController(net_b, config=ControllerConfig())
        net_b.attach_workload(
            UniformRandomWorkload(net_b.topology.num_hosts,
                                  seed=3).events(0.5 * MS))
        net_b.run(until_ns=0.5 * MS)
        assert net_a.stats.messages_delivered == net_b.stats.messages_delivered
        assert net_a.sim.events_fired == net_b.sim.events_fired


class TestLocalControllersAudit:
    def test_shared_log_has_per_chip_names(self):
        net = make_network()
        log = DecisionLog()
        fleet = SwitchLocalControllers.deploy(
            net, config=ControllerConfig(independent_channels=True),
            decision_log=log)
        net.attach_workload(
            UniformRandomWorkload(net.topology.num_hosts,
                                  seed=3).events(0.3 * MS))
        net.run(until_ns=0.3 * MS)
        names = {d.controller for d in log.records}
        assert len(names) > 1
        assert all(name.startswith(("sw", "host")) for name in names)
        total = sum(c.reconfigurations for c in fleet.controllers)
        assert log.transitions_recorded == total


class TestLaneControllerAudit:
    def test_lane_decisions_carry_modes(self):
        net = make_network()
        log = DecisionLog()
        controller = LaneAwareController(
            net, config=LaneControllerConfig(), decision_log=log)
        net.attach_workload(
            UniformRandomWorkload(net.topology.num_hosts,
                                  seed=3).events(0.3 * MS))
        net.run(until_ns=0.3 * MS)
        assert log.decisions_recorded > 0
        assert all(d.old_mode is not None for d in log.records
                   if d.reason != POWERED_OFF)
        assert log.transitions_recorded == controller.reconfigurations

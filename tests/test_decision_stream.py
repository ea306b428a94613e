"""The full decision-audit stream, pinned record by record.

A run's summary digest holds only aggregates (reason counts, rate
transitions), so two runs can agree on it and still make their
decisions in a different order, with different inputs or at different
times.  These pins hash every retained record's ``to_dict()`` in log
order, then every epoch mark, so a change to the control path that
reorders, adds, drops or alters a single decision fails here.

The control-chaos and service pins were computed at the commit before
the control-plane epoch diet (the hand-written frozen initializers, the
direct group reads and the shared keyed-draw stream), which had to
reproduce them unchanged.  The gating, lane and dynamic-topology pins
were computed before the gating controllers shared one core and every
drain and wake went through ``Channel``; they also pin the run's event
count, which catches a drain or wake that moves in time.
"""

import hashlib
import json

from repro.experiments.runner import SimulationSpec, run_simulation
from repro.faults.control_faults import (
    ControlFaultScenario,
    ControllerCrash,
    DecisionLoss,
    TelemetryDropout,
)
from repro.obs.decisions import DecisionLog
from repro.obs.session import Telemetry
from repro.service.service import ControlPlaneService, ServiceConfig
from repro.units import US


def stream_digest(log: DecisionLog) -> str:
    """sha256 over every record (sorted-key JSON), then every mark."""
    sha = hashlib.sha256()
    for decision in log.records:
        sha.update(json.dumps(decision.to_dict(), sort_keys=True)
                   .encode("utf-8"))
        sha.update(b"\n")
    for mark in log.epochs:
        sha.update(json.dumps({"epoch_ns": mark}).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def test_control_chaos_stream_is_pinned():
    # The benchmark's control-chaos workload (topology control, link
    # flaps, ctl_chaos_mid, failsafe on, 1 us epochs) at a fifth of
    # its horizon: the scenario's windows and crash scale with it.
    spec = SimulationSpec(
        k=4, n=3, workload="shifting", uniform_offered_load=0.25,
        control="demand_topo", policy="ladder", reactivation_ns=0.1 * US,
        faults="flap", control_faults="ctl_chaos_mid", failsafe=True,
        inject_fraction=0.5, duration_ns=200 * US, seed=1, fault_seed=1)
    log = DecisionLog(max_records=None)
    run_simulation(spec, telemetry=Telemetry(decision_log=log))
    reasons = {d.reason for d in log.records}
    # The run exercises every stage of the control path.
    assert {"control_fault_telemetry_lost", "control_fault_crash",
            "control_fault_actuation_lost", "failsafe_hold",
            "failsafe_retry", "topology_off"} <= reasons
    assert (len(log.records), len(log.epochs)) == (50913, 191)
    assert stream_digest(log) == (
        "10a4c78624abf0cb61271d9ecf3a3c31e9a2943b94ff929b39831bff6cb5bdb7")


def _pinned_run(spec):
    log = DecisionLog(max_records=None)
    summary = run_simulation(spec, telemetry=Telemetry(decision_log=log))
    return log, {d.reason for d in log.records}, summary.events_fired


def test_pinned_chaos_arm_stream_is_pinned():
    # The chaos campaign's mid/failsafe arm (gating with the pinned
    # ring under control-plane chaos) over its first 400 us.
    log, reasons, events = _pinned_run(SimulationSpec(
        k=6, n=2, workload="uniform", duration_ns=400 * US, seed=1,
        control="fault_pinned", policy="ladder",
        uniform_offered_load=0.25, inject_fraction=0.5, faults="quiet",
        fault_seed=1, control_faults="ctl_chaos_mid", failsafe=True))
    assert {"gated_off", "gated_wake", "pinned_hold", "failsafe_hold",
            "failsafe_deadman", "failsafe_retry"} <= reasons
    assert (len(log.records), len(log.epochs), events) == (3306, 31, 37823)
    assert stream_digest(log) == (
        "0c3f9b0f7d2dffee68dd4ded8fc2c14414b095f950d45a01d00b5d55f689f6d1")


def test_gated_mtbf_stream_is_pinned():
    # The fault-tolerance campaign's unprotected gating arm: link
    # faults drain and wake channels beside the controller's gating.
    log, reasons, events = _pinned_run(SimulationSpec(
        k=8, n=2, workload="uniform", duration_ns=300 * US, seed=1,
        control="fault_gated", policy="ladder", uniform_offered_load=0.25,
        inject_fraction=0.4, faults="mtbf", fault_seed=1))
    assert {"gated_off", "gated_wake", "fault_down", "fault_repair",
            "powered_off"} <= reasons
    assert (len(log.records), len(log.epochs), events) == (2891, 30, 34888)
    assert stream_digest(log) == (
        "5b3f694026e766f5513c2af0d2b082c356e8664c9b5fc0835244d5d26ef87d98")


def test_lane_aware_stream_is_pinned():
    log, reasons, events = _pinned_run(SimulationSpec(
        k=4, n=2, workload="search", duration_ns=400 * US, seed=1,
        control="lane_aware", independent_channels=True))
    assert {"above_threshold", "below_threshold", "clamped_max",
            "clamped_min"} <= reasons
    assert (len(log.records), len(log.epochs), events) == (1760, 40, 3805)
    assert stream_digest(log) == (
        "131dcf44f1a8ccbc1c725759917b9526527c98f4c704cec51b30ea51671b8bcb")


def test_dynamic_topology_stream_is_pinned():
    # Load arrives (mesh -> torus -> FBFLY), then stops (back down).
    log, reasons, events = _pinned_run(SimulationSpec(
        k=4, n=2, workload="uniform", uniform_offered_load=0.5,
        inject_fraction=0.5, duration_ns=400 * US, seed=1,
        control="dynamic_topology", epoch_ns=10 * US))
    assert reasons == {"topology_off", "topology_on"}
    assert (len(log.records), len(log.epochs), events) == (4, 0, 32992)
    assert stream_digest(log) == (
        "178ed3f4fe941148cd465647ea21b32eca0b9501017623aac9c012ba97666909")


def test_service_stream_is_pinned():
    # service-fleet's fault mix (dropout, command loss, one crash the
    # supervisor recovers from) on 8 groups for one diurnal day.
    config = ServiceConfig(groups=8, epochs=240, seed=1)
    quarter_ns = config.duration_ns / 4
    scenario = ControlFaultScenario(
        name="pin", seed=1,
        dropout=TelemetryDropout(fraction=0.6, probability=0.95,
                                 start_ns=0.2 * quarter_ns,
                                 end_ns=2.4 * quarter_ns),
        loss=DecisionLoss(probability=0.3, start_ns=0.1 * quarter_ns),
        crashes=(ControllerCrash(time_ns=3.2 * quarter_ns),))
    log = DecisionLog(max_records=None)
    ControlPlaneService(config, scenario=scenario, decision_log=log).run()
    reasons = {d.reason for d in log.records}
    assert {"control_fault_telemetry_lost", "control_fault_actuation_lost",
            "service_retry", "service_restart"} <= reasons
    assert (len(log.records), len(log.epochs)) == (2752, 240)
    assert stream_digest(log) == (
        "80f329ed97339fe0a84852217be0434277d7f7de81b470c22a3ffeab7a2cab0d")

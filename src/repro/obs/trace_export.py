"""Chrome trace-event export: load a run's timeline in Perfetto.

Converts one instrumented run into the Chrome trace-event JSON format
(the ``{"traceEvents": [...]}`` flavour), which both
https://ui.perfetto.dev and ``chrome://tracing`` open directly:

- each **channel** becomes a track (a ``tid`` with a thread-name
  metadata event) carrying one complete (``"X"``) slice per interval
  spent at a configured rate, labelled ``"<rate>Gb/s"``;
- **epoch boundaries** appear as instant (``"i"``) events on a
  dedicated controller track;
- **fault events** (link faults, repairs, partitions, gating and
  pinned-hold decisions — any :data:`repro.obs.decisions.FAULT_REASONS`
  record) appear as instants on a dedicated ``faults`` track placed
  after the channel tracks;
- **topology events** (power-off/on, dwell holds and guard vetoes —
  any :data:`repro.obs.decisions.TOPOLOGY_REASONS` record) appear as
  instants on a dedicated ``topology`` track, with a ``dark_groups``
  counter chart tracking how much of the fabric is dark over time;
- **power samples** (when a power monitor ran) appear as counter
  (``"C"``) events, rendered by the viewers as a stacked area chart.

Timestamps convert from simulation nanoseconds to the format's
microseconds.  :func:`export_trace` re-runs a spec in-process with a
:class:`~repro.obs.session.Telemetry` bundle attached (cached sweep
summaries do not retain per-transition timelines), then writes the
file; :func:`validate_trace` is the schema check the tests and the CLI
share.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Trace-event phases this exporter emits.
PHASES = ("M", "X", "i", "C")

#: The controller track's tid (channels start at 1).
CONTROLLER_TID = 0


def _ns_to_us(time_ns: float) -> float:
    """Simulation ns -> trace-format microseconds."""
    return time_ns / 1000.0


def _rate_segments(
        initial_rate: float, end_ns: float,
        transitions: List[Tuple[float, Optional[float]]],
) -> List[Tuple[float, float, Optional[float]]]:
    """``(start_ns, end_ns, rate)`` intervals from a transition list."""
    segments: List[Tuple[float, float, Optional[float]]] = []
    current: Optional[float] = initial_rate
    start = 0.0
    for time_ns, new_rate in transitions:
        if time_ns > start:
            segments.append((start, time_ns, current))
        current = new_rate
        start = time_ns
    if end_ns > start:
        segments.append((start, end_ns, current))
    return segments


def build_trace(network, decision_log,
                power_samples: Optional[List[Tuple[float, float]]] = None,
                label: str = "repro") -> Dict[str, Any]:
    """Assemble the trace-event document for one finished run.

    Args:
        network: The fabric that ran (channel inventory + end time).
        decision_log: A :class:`~repro.obs.decisions.DecisionLog` whose
            retained records cover the run (use ``max_records=None``).
        power_samples: Optional ``(time_ns, power_fraction)`` series.
        label: Process name shown in the viewer.
    """
    end_ns = network.sim.now
    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": 1, "tid": CONTROLLER_TID,
        "name": "process_name", "args": {"name": label},
    }, {
        "ph": "M", "pid": 1, "tid": CONTROLLER_TID,
        "name": "thread_name", "args": {"name": "epoch controller"},
    }]

    for time_ns in decision_log.epochs:
        events.append({
            "ph": "i", "pid": 1, "tid": CONTROLLER_TID, "s": "t",
            "name": "epoch", "ts": _ns_to_us(time_ns),
        })

    transitions_by_channel: Dict[str, List[Tuple[float, Optional[float]]]] = {}
    for decision in decision_log.records:
        if not decision.changed:
            continue
        for channel_name in decision.channels:
            transitions_by_channel.setdefault(channel_name, []).append(
                (decision.time_ns, decision.new_rate))

    initial_rate = network.config.initial_rate_gbps
    if initial_rate is None:
        initial_rate = network.config.ladder.max_rate
    for tid, channel in enumerate(network.tunable_channels(), start=1):
        events.append({
            "ph": "M", "pid": 1, "tid": tid,
            "name": "thread_name", "args": {"name": channel.name},
        })
        transitions = transitions_by_channel.get(channel.name, [])
        for start, stop, rate in _rate_segments(initial_rate, end_ns,
                                                transitions):
            name = "off" if rate is None else f"{rate:g}Gb/s"
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": name,
                "ts": _ns_to_us(start),
                "dur": _ns_to_us(stop - start),
                "args": {"rate_gbps": rate},
            })

    from repro.obs.decisions import FAULT_REASONS, TOPOLOGY_REASONS
    from repro.obs.decisions import TOPOLOGY_OFF, TOPOLOGY_ON
    fault_records = [d for d in decision_log.records
                     if d.reason in FAULT_REASONS]
    if fault_records:
        faults_tid = len(network.tunable_channels()) + 1
        events.append({
            "ph": "M", "pid": 1, "tid": faults_tid,
            "name": "thread_name", "args": {"name": "faults"},
        })
        for decision in fault_records:
            events.append({
                "ph": "i", "pid": 1, "tid": faults_tid, "s": "t",
                "name": f"{decision.reason}:{decision.group}",
                "ts": _ns_to_us(decision.time_ns),
            })

    topology_records = [d for d in decision_log.records
                        if d.reason in TOPOLOGY_REASONS]
    if topology_records:
        # Placed after the faults track when one exists, else directly
        # after the channel tracks.
        topo_tid = (len(network.tunable_channels()) + 1
                    + (1 if fault_records else 0))
        events.append({
            "ph": "M", "pid": 1, "tid": topo_tid,
            "name": "thread_name", "args": {"name": "topology"},
        })
        dark = 0
        for decision in topology_records:
            events.append({
                "ph": "i", "pid": 1, "tid": topo_tid, "s": "t",
                "name": f"{decision.reason}:{decision.group}",
                "ts": _ns_to_us(decision.time_ns),
            })
            if decision.reason == TOPOLOGY_OFF:
                dark += 1
            elif decision.reason == TOPOLOGY_ON:
                dark = max(0, dark - 1)
            else:
                continue
            events.append({
                "ph": "C", "pid": 1, "name": "dark_groups",
                "ts": _ns_to_us(decision.time_ns),
                "args": {"dark_groups": dark},
            })

    for time_ns, fraction in (power_samples or []):
        events.append({
            "ph": "C", "pid": 1, "name": "power_fraction",
            "ts": _ns_to_us(time_ns),
            "args": {"power": fraction},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "exporter": "repro.obs.trace_export",
            "channels": len(network.tunable_channels()),
            "epochs": len(decision_log.epochs),
            "transitions": decision_log.transitions_recorded,
            "fault_events": len(fault_records),
            "topology_events": len(topology_records),
        },
    }


def export_trace(spec, out_path: Union[str, Path],
                 power_period_ns: Optional[float] = None
                 ) -> Dict[str, Any]:
    """Run ``spec`` live with telemetry and write its trace file.

    Cached summaries only retain aggregate transition counts, so the
    exporter always simulates in-process with an unbounded decision
    log (and a power monitor when ``power_period_ns`` is set); the
    re-run is bit-deterministic, so the trace faithfully describes the
    cached result too.  Returns the trace document.
    """
    from repro.experiments.runner import run_simulation
    from repro.obs.session import Telemetry

    telemetry = Telemetry(power_period_ns=power_period_ns)
    run_simulation(spec, telemetry=telemetry)
    power = (telemetry.power_monitor.samples
             if telemetry.power_monitor is not None else None)
    trace = build_trace(telemetry.network, telemetry.decision_log,
                        power_samples=power,
                        label=f"repro {spec.workload} k={spec.k} "
                              f"n={spec.n} seed={spec.seed}")
    problems = validate_trace(trace)
    if problems:
        raise AssertionError(
            "exporter produced an invalid trace: " + "; ".join(problems))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return trace


def build_service_trace(service, label: str = "repro service"
                        ) -> Dict[str, Any]:
    """Assemble the trace-event document for one finished service run.

    The live control-plane service timeline, same format and the same
    :func:`validate_trace` invariants as the simulator export:

    - one track per link group carrying complete slices per interval
      spent at a believed rate (``"off"`` while gated dark), rebuilt
      from the decision log's changed/gating records;
    - epoch marks as instants on the controller track;
    - every ``service_*`` robustness event (shed, stale hold, safe
      floor, retry, restart, recovery) as an instant on a dedicated
      ``service`` track;
    - counter tracks for ingest backlog and per-tick decision latency
      (captured when the service runs with ``capture_events=True``).

    Args:
        service: A finished
            :class:`~repro.service.service.ControlPlaneService` whose
            decision log retained records (``max_records=None``).
        label: Process name shown in the viewer.
    """
    from repro.obs.decisions import GATED_OFF, SERVICE_REASONS

    config = service.config
    decision_log = service.log
    end_ns = service.clock.now_ns
    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": 1, "tid": CONTROLLER_TID,
        "name": "process_name", "args": {"name": label},
    }, {
        "ph": "M", "pid": 1, "tid": CONTROLLER_TID,
        "name": "thread_name", "args": {"name": "decision loop"},
    }]

    for time_ns in decision_log.epochs:
        events.append({
            "ph": "i", "pid": 1, "tid": CONTROLLER_TID, "s": "t",
            "name": "epoch", "ts": _ns_to_us(time_ns),
        })

    transitions_by_group: Dict[str, List[Tuple[float, Optional[float]]]] = {}
    for decision in decision_log.records:
        if decision.reason == GATED_OFF:
            transitions_by_group.setdefault(decision.group, []).append(
                (decision.time_ns, None))
        elif decision.changed or (decision.reason in SERVICE_REASONS
                                  and decision.new_rate is not None):
            transitions_by_group.setdefault(decision.group, []).append(
                (decision.time_ns, decision.new_rate))

    initial_rate = config.ladder.max_rate
    for tid, group in enumerate(config.group_names, start=1):
        events.append({
            "ph": "M", "pid": 1, "tid": tid,
            "name": "thread_name", "args": {"name": group},
        })
        transitions = transitions_by_group.get(group, [])
        for start, stop, rate in _rate_segments(initial_rate, end_ns,
                                                transitions):
            name = "off" if rate is None else f"{rate:g}Gb/s"
            events.append({
                "ph": "X", "pid": 1, "tid": tid, "name": name,
                "ts": _ns_to_us(start),
                "dur": _ns_to_us(stop - start),
                "args": {"rate_gbps": rate},
            })

    service_records = [d for d in decision_log.records
                       if d.reason in SERVICE_REASONS]
    if service_records:
        service_tid = len(config.group_names) + 1
        events.append({
            "ph": "M", "pid": 1, "tid": service_tid,
            "name": "thread_name", "args": {"name": "service"},
        })
        for decision in service_records:
            events.append({
                "ph": "i", "pid": 1, "tid": service_tid, "s": "t",
                "name": f"{decision.reason}:{decision.group}",
                "ts": _ns_to_us(decision.time_ns),
            })

    latency_samples = 0
    for event in service.events:
        if event["kind"] == "backlog":
            events.append({
                "ph": "C", "pid": 1, "name": "ingest_backlog",
                "ts": _ns_to_us(event["time_ns"]),
                "args": {"records": event["value"]},
            })
        elif event["kind"] == "decision_pass":
            events.append({
                "ph": "C", "pid": 1, "name": "decision_latency_ms",
                "ts": _ns_to_us(event["start_ns"] + event["dur_ns"]),
                "args": {"latency_ms": event["dur_ns"] / 1e6},
            })
            latency_samples += 1

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "exporter": "repro.obs.trace_export",
            "groups": len(config.group_names),
            "epochs": len(decision_log.epochs),
            "service_events": len(service_records),
            "latency_samples": latency_samples,
        },
    }


def export_service_trace(service, out_path: Union[str, Path],
                         label: str = "repro service") -> Dict[str, Any]:
    """Write a finished service run's trace file; returns the document."""
    trace = build_service_trace(service, label=label)
    problems = validate_trace(trace)
    if problems:
        raise AssertionError(
            "exporter produced an invalid trace: " + "; ".join(problems))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    return trace


def validate_trace(payload: Any) -> List[str]:
    """Schema-check a trace document; returns problems (empty = valid).

    Checks the invariants the viewers rely on: a ``traceEvents`` list,
    known phases, microsecond timestamps on timed events, non-negative
    durations on complete events, and metadata/counter args shapes.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["trace is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if phase in ("M", "C") and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: {phase} event lacks args")
        if phase != "C" and not isinstance(event.get("tid", 0), int):
            problems.append(f"{where}: non-integer tid")
    return problems

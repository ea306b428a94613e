"""The benchmark's four workloads, run through public entry points only.

Every random stream derives from the benchmark seed.  All four are open
loop: the simulated fabrics inject on a schedule drawn before the run,
whatever the network does, and the service receives one telemetry
record per group per epoch, whatever its decision loop does.

``scale`` shortens a workload (``0.25`` is the quick size); the
service's fault times scale with its horizon.

Besides the digest and the layer counts, every repeat returns the
simulated (for the service, virtual) microseconds it covered, its
decision-audit records and the power fraction it ran at.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, Optional

from repro.experiments.cache import summary_digest
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
from repro.sim.invariants import check_fabric
from repro.units import US

#: Simulated nanoseconds of one full-size fabric workload.
FABRIC_NS = 2_000_000.0

#: Diurnal days of one full-size service run (240 epochs each).
SERVICE_DAYS = 6


def fabric_steady(seed: int, scale: float) -> SimulationSpec:
    """64 hosts, 64 KB uniform messages at 25% load, epoch control.

    Not the paper's 512 KB: in 2 ms that is only about 300 Poisson
    messages, and the work they make differs so much from seed to seed
    that run time spreads 13% across seeds 1-10.  64 KB gives eight
    times the messages (2% spread in engine events) and, at 32 packets
    each, still leaves the per-hop path dominant.
    """
    return SimulationSpec(
        k=4, n=3, workload="uniform", message_bytes=64 * 1024,
        uniform_offered_load=0.25, control="epoch",
        target_utilization=0.5, reactivation_ns=1 * US,
        duration_ns=FABRIC_NS * scale, seed=seed)


def fabric_rpc(seed: int, scale: float) -> SimulationSpec:
    """``fabric-steady`` with one-packet (2 KB) messages."""
    return SimulationSpec(
        k=4, n=3, workload="uniform", message_bytes=2048,
        uniform_offered_load=0.25, control="epoch",
        target_utilization=0.5, reactivation_ns=1 * US,
        duration_ns=FABRIC_NS * scale, seed=seed)


def control_chaos(seed: int, scale: float) -> SimulationSpec:
    """Shifting demand under topology control, link flaps and
    control-plane chaos, guarded by the failsafe, at 1 us epochs."""
    return SimulationSpec(
        k=4, n=3, workload="shifting", uniform_offered_load=0.25,
        control="demand_topo", policy="ladder", reactivation_ns=0.1 * US,
        faults="flap", control_faults="ctl_chaos_mid", failsafe=True,
        inject_fraction=0.5, duration_ns=FABRIC_NS / 2 * scale,
        seed=seed, fault_seed=seed)


def service_fleet(seed: int, scale: float):
    """64 groups for six diurnal days under telemetry dropout,
    decision loss and one crash the supervisor recovers from its
    checkpoint."""
    epochs = round(SERVICE_DAYS * ServiceConfig.epochs_per_day * scale)
    config = ServiceConfig(groups=64, epochs=epochs, seed=seed)
    day_ns = config.duration_ns / SERVICE_DAYS
    scenario = ControlFaultScenario(
        name="fleet", seed=seed,
        dropout=TelemetryDropout(fraction=0.6, probability=0.95,
                                 start_ns=0.2 * day_ns,
                                 end_ns=2.4 * day_ns),
        loss=DecisionLoss(probability=0.3, start_ns=0.1 * day_ns),
        crashes=(ControllerCrash(time_ns=3.2 * day_ns),))
    return config, scenario


SIMULATED = {
    "fabric-steady": fabric_steady,
    "fabric-rpc": fabric_rpc,
    "control-chaos": control_chaos,
}
SERVICE = {"service-fleet": service_fleet}


def _sha256(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class _StampedTelemetry(Telemetry):
    """The counters-only audit every run carries, plus a clock stamp
    when the network is built and about to receive its workload."""

    def __init__(self, recorder):
        super().__init__(decision_log=DecisionLog(max_records=0))
        self.recorder = recorder
        self.started: Optional[float] = None

    def attach(self, network) -> None:
        """Stamp the end of set-up (and open the root span)."""
        super().attach(network)
        self.started = time.monotonic()
        if self.recorder is not None:
            self.recorder.enter("sim.engine")


def _run_simulated(spec: SimulationSpec, recorder) -> Dict[str, Any]:
    telemetry = _StampedTelemetry(recorder)
    summary = run_simulation(spec, telemetry=telemetry)
    if recorder is not None:
        recorder.exit()
    ended = time.monotonic()
    network = telemetry.network
    stats = network.stats
    channels = network.all_channels()
    hops = sum(switch.packets_routed for switch in network.switches)
    decisions = telemetry.decision_log.decisions_recorded
    failsafe = (summary.control_plane or {}).get("failsafe") or {}
    return {
        "started": telemetry.started,
        "ended": ended,
        "digest": _sha256(summary_digest(summary)),
        "problems": check_fabric(network, drained=False).violations,
        "sim_us": spec.duration_ns / US,
        "decisions": decisions,
        "power_frac": summary.measured_power_fraction,
        "counts": {
            "sim.engine.events": summary.events_fired,
            "sim.switch.hops": hops,
            "sim.switch.escapes": summary.escapes,
            "sim.channel.credit_stalls": sum(
                ch.stats.credit_stalls for ch in channels),
            "sim.channel.reactivations": sum(
                ch.stats.reactivations for ch in channels),
            "sim.host.messages": stats.messages_injected,
            "sim.stats.samples": (stats.packet_latency.count
                                  + stats.message_latency.count),
            "core.reconfigurations": summary.reconfigurations,
            "core.failsafe.interventions": sum(
                failsafe.get(key, 0) for key in
                ("holds", "deadman_floors", "pressure_ups", "retries",
                 "recoveries")),
            "faults.drops": stats.packets_dropped,
            "topo.guard_vetoes": (summary.topo or {}).get(
                "guard_vetoes", 0),
            "obs.decisions.calls": decisions,
        },
    }


def _run_service(config: ServiceConfig, scenario, recorder
                 ) -> Dict[str, Any]:
    service = ControlPlaneService(config, scenario=scenario)
    started = time.monotonic()
    if recorder is not None:
        recorder.enter("service.loop")
    summary = service.run()
    if recorder is not None:
        recorder.exit()
    ended = time.monotonic()
    problems = []
    if summary.partitions:
        problems.append(f"{summary.partitions} groups stranded dark")
    if summary.decisions != config.groups * config.epochs:
        problems.append(f"{summary.decisions} decisions, expected "
                        f"{config.groups * config.epochs}")
    if not 0.0 < summary.served_fraction <= 1.0:
        problems.append(f"served fraction {summary.served_fraction}")
    return {
        "started": started,
        "ended": ended,
        "digest": _sha256(summary.digest()),
        "problems": problems,
        "sim_us": config.duration_ns / US,
        "decisions": service.log.decisions_recorded,
        # The plant's energy proxy: time-mean configured rate over the
        # maximum, the service's counterpart of the power fraction.
        "power_frac": summary.mean_rate_fraction,
        "counts": {
            "service.streams.offers": service.stream.offered,
            "service.streams.sheds": summary.sheds,
            "service.transport.sends": service.transport.sent,
            "service.transport.retries": summary.retries,
            "service.checkpoint.saves": summary.checkpoints,
            "obs.decisions.calls": service.log.decisions_recorded,
        },
    }


def run(name: str, seed: int, scale: float, recorder=None
        ) -> Dict[str, Any]:
    """One repeat of workload ``name``; spans go to ``recorder``."""
    if name in SIMULATED:
        return _run_simulated(SIMULATED[name](seed, scale), recorder)
    if name in SERVICE:
        return _run_service(*SERVICE[name](seed, scale), recorder)
    raise ValueError(f"unknown workload {name!r}")

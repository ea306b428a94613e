"""Live control-plane service: the epoch controller as a long-running
supervised asyncio process.

The simulator answers "what does the policy do to the fabric"; this
package answers "does the *service running* that policy stay up and
keep deciding" when telemetry drops, actuations are lost, the decision
loop is killed, or a slow consumer backs the ingest queue up.  It runs
entirely on a virtual clock, so multi-hour diurnal workloads replay
deterministically in milliseconds of wall time.

Layers (each its own module):

- :mod:`~repro.service.clock` — deterministic virtual-time asyncio;
- :mod:`~repro.service.streams` — bounded telemetry ingest with
  watermark backpressure and oldest-first shedding;
- :mod:`~repro.service.plant` — the fluid fabric model being actuated;
- :mod:`~repro.service.transport` — lossy/delayed actuation path;
- :mod:`~repro.service.controller` — the decision loop, degraded-mode
  ladder, and retry journal;
- :mod:`~repro.service.checkpoint` — crash-safe versioned checkpoints;
- :mod:`~repro.service.supervisor` — deadman watchdog and restart
  recovery;
- :mod:`~repro.service.faults` — the chaos DSL adapted to streams;
- :mod:`~repro.service.service` — wiring, lifecycle, summary.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".checkpoint": ("CHECKPOINT_SCHEMA_VERSION", "FileCheckpointStore",
                    "MemoryCheckpointStore", "decode_checkpoint",
                    "encode_checkpoint"),
    ".clock": ("VirtualClock",),
    ".controller": ("DecisionState", "GroupState", "IntentEntry",
                    "ServiceDecisionLoop", "fresh_state"),
    ".faults": ("ServiceChaos", "SlowConsumer"),
    ".plant": ("FabricPlant", "PlantGroup"),
    ".service": ("ControlPlaneService", "ServiceConfig", "ServiceSummary"),
    ".streams": ("EpochTick", "TelemetryRecord", "TelemetryStream"),
    ".supervisor": ("Supervisor",),
    ".transport": ("ActuationTransport", "RateCommand"),
    "repro.workloads.service_traces": ("DiurnalTraceSource",),
})

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "ActuationTransport",
    "ControlPlaneService",
    "DecisionState",
    "DiurnalTraceSource",
    "EpochTick",
    "FabricPlant",
    "FileCheckpointStore",
    "GroupState",
    "IntentEntry",
    "MemoryCheckpointStore",
    "PlantGroup",
    "RateCommand",
    "ServiceChaos",
    "ServiceConfig",
    "ServiceDecisionLoop",
    "ServiceSummary",
    "SlowConsumer",
    "Supervisor",
    "TelemetryRecord",
    "TelemetryStream",
    "VirtualClock",
    "fresh_state",
]

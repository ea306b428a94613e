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

from repro.service.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    FileCheckpointStore,
    MemoryCheckpointStore,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.service.clock import VirtualClock
from repro.service.controller import (
    DecisionState,
    GroupState,
    IntentEntry,
    ServiceDecisionLoop,
    fresh_state,
)
from repro.service.faults import ServiceChaos, SlowConsumer
from repro.service.plant import FabricPlant, PlantGroup
from repro.service.service import (
    ControlPlaneService,
    ServiceConfig,
    ServiceSummary,
)
from repro.service.streams import EpochTick, TelemetryRecord, TelemetryStream
from repro.service.supervisor import Supervisor
from repro.service.transport import ActuationTransport, RateCommand
from repro.workloads.service_traces import (
    DiurnalTraceSource,
    TraceReplaySource,
    record_trace,
)

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
    "TraceReplaySource",
    "VirtualClock",
    "fresh_state",
    "record_trace",
]

"""The live control-plane service: wiring, lifecycle, summary.

:class:`ControlPlaneService` assembles the full pipeline::

    trace source ──► plant ──► chaos ──► telemetry stream ─┐
        ▲                                                  ▼
        │                                          decision loop ◄── supervisor
        └── plant.apply ◄── actuation transport ◄──┘   │  ▲
                                 ▲                     │  └─ checkpoint store
                                 └──── intent journal ─┘

and runs it to a fixed virtual horizon on a single
:class:`~repro.service.clock.VirtualClock`, so a "multi-hour" diurnal
workload executes in well under a second of wall time and two runs of
the same config produce byte-identical decision streams.

Resilience toggles live on :class:`ServiceConfig` (``shedding``,
``degraded_modes``, ``supervised``, ``retries``);
:meth:`ServiceConfig.unprotected` flips them all off, which is the
ablation arm every resilience claim in the campaign is measured
against.  :class:`ServiceSummary` is the run's digest — decision
latency percentiles measured telemetry-emission → decision-emission
in virtual time, decisions per virtual second, every robustness
counter, and the plant's availability/energy accounting — with
``wall_seconds`` excluded from :meth:`ServiceSummary.digest` so
goldens stay machine-independent.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.safety import PowerJournal
from repro.obs.decisions import (
    GATED_OFF,
    GATED_WAKE,
    SERVICE_RECOVERED,
    SERVICE_SAFE_FLOOR,
    SERVICE_SHED,
    DecisionLog,
)
from repro.obs.metrics import MetricsRegistry, SERVICE_LATENCY_BUCKETS_NS
from repro.power.link_rates import RateLadder
from repro.service.checkpoint import MemoryCheckpointStore
from repro.service.clock import VirtualClock
from repro.service.controller import DecisionState, ServiceDecisionLoop
from repro.service.faults import ServiceChaos, SlowConsumer
from repro.service.plant import FabricPlant
from repro.service.streams import EpochTick, TelemetryStream
from repro.service.supervisor import Supervisor
from repro.service.transport import ActuationTransport
from repro.sums import left_sum
from repro.workloads.service_traces import DiurnalTraceSource

if TYPE_CHECKING:
    import asyncio


@dataclass(frozen=True)
class ServiceConfig:
    """Pinned configuration of one service run (JSON-safe)."""

    groups: int = 8
    epoch_ns: float = 1e10
    epochs: int = 720
    ladder_rates: Tuple[float, ...] = (2.5, 5.0, 10.0, 20.0, 40.0)
    target_utilization: float = 0.6
    gate_after_epochs: int = 3
    idle_eps_gbps: float = 1e-3
    wake_queue_fraction: float = 0.05
    staleness_ttl_epochs: int = 3
    fleet_floor_fraction: float = 0.6
    floor_rate_gbps: float = 2.5
    record_cost_ns: float = 2e7
    tick_cost_ns: float = 1e7
    stream_capacity: Optional[int] = 10
    high_watermark: Optional[int] = None
    low_watermark: Optional[int] = None
    retry_timeout_epochs: float = 1.0
    retry_max_attempts: int = 6
    journal_cap: int = 256
    checkpoint_interval_epochs: int = 1
    checkpoint_offset_epochs: float = 0.5
    supervisor_check_epochs: float = 0.5
    deadman_epochs: float = 2.5
    strand_grace_epochs: int = 12
    send_delay_ns: float = 2e6
    ack_delay_ns: float = 2e6
    reactivation_ns: float = 2e6
    epochs_per_day: int = 240
    peak_gbps: float = 32.0
    seed: int = 0
    shedding: bool = True
    degraded_modes: bool = True
    supervised: bool = True
    retries: bool = True

    # Derived once per config (the loop reads both every epoch); a
    # cached_property writes the instance dict, so frozen is no bar.
    @functools.cached_property
    def group_names(self) -> Tuple[str, ...]:
        """Fleet-ordered control-group names."""
        return tuple(f"g{i}" for i in range(self.groups))

    @functools.cached_property
    def ladder(self) -> RateLadder:
        """The legal rate ladder."""
        return RateLadder(self.ladder_rates)

    @property
    def duration_ns(self) -> float:
        """Virtual run length (workload horizon)."""
        return self.epochs * self.epoch_ns

    @property
    def retry_timeout_ns(self) -> float:
        """Ack timeout before the first journal retry."""
        return self.retry_timeout_epochs * self.epoch_ns

    def unprotected(self) -> "ServiceConfig":
        """The ablation arm: every resilience feature off."""
        return dataclasses.replace(self, shedding=False,
                                   degraded_modes=False,
                                   supervised=False, retries=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe config (run records, checkpoints provenance)."""
        out = dataclasses.asdict(self)
        out["ladder_rates"] = list(self.ladder_rates)
        return out


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    import math
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class ServiceSummary:
    """One service run's digest (the ``SimulationSummary`` idiom)."""

    epochs: int
    duration_s: float
    resumed: bool
    decisions: int
    decisions_per_sec: float
    latency_mean_ns: float
    latency_p50_ns: float
    latency_p90_ns: float
    latency_p99_ns: float
    latency_max_ns: float
    stale_holds: int
    safe_floors: int
    fleet_floor_epochs: int
    retries: int
    retry_exhausted: int
    journal_evictions: int
    acks: int
    gate_offs: int
    wakes: int
    sheds: int
    backpressure_raises: int
    max_backlog: int
    restarts: int
    recoveries: int
    checkpoints: int
    partitions: int
    stranded_epochs: int
    served_fraction: float
    mean_rate_fraction: float
    reason_counts: Dict[str, int]
    transport: Dict[str, object]
    control_plane: Optional[Dict[str, object]]
    wall_seconds: float

    def digest(self) -> Dict[str, Any]:
        """JSON-safe payload, wall time excluded (goldens must be
        machine-independent)."""
        out = dataclasses.asdict(self)
        del out["wall_seconds"]
        return out

    def format_line(self) -> str:
        """One printable summary line."""
        return (f"{self.epochs} epochs, {self.decisions} decisions "
                f"({self.decisions_per_sec:.2f}/s), "
                f"p99 latency {self.latency_p99_ns / 1e6:.1f} ms, "
                f"partitions={self.partitions}, shed={self.sheds}, "
                f"retries={self.retries}, restarts={self.restarts}, "
                f"served={self.served_fraction:.4f}, "
                f"rate_fraction={self.mean_rate_fraction:.4f}")


class ControlPlaneService:
    """One runnable service instance (fresh or checkpoint-restored).

    Args:
        config: The pinned run configuration.
        trace_source: Demand source; defaults to the config's diurnal
            profile.
        plant: The fabric to actuate; pass a shared instance to model
            a service process dying while the fabric keeps running.
        scenario: Optional control-fault scenario (chaos DSL).
        slow: Optional :class:`~repro.service.faults.SlowConsumer`.
        checkpoint_store: Where periodic checkpoints go; defaults to
            an in-memory store.
        restore: Resume from the store's latest checkpoint if any.
        decision_log: Audit log; defaults to counters-only.
        metrics: Metrics registry; defaults to a private one.
        capture_events: Retain trace events for the Perfetto export.
    """

    def __init__(self, config: ServiceConfig, trace_source=None,
                 plant: Optional[FabricPlant] = None, scenario=None,
                 slow: Optional[SlowConsumer] = None,
                 checkpoint_store=None, restore: bool = False,
                 decision_log: Optional[DecisionLog] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 capture_events: bool = False):
        self.config = config
        self.log = (decision_log if decision_log is not None
                    else DecisionLog(max_records=0))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.checkpoint_store = (checkpoint_store
                                 if checkpoint_store is not None
                                 else MemoryCheckpointStore())
        self.capture_events = capture_events
        self.events: List[Dict[str, Any]] = []

        self.start_epoch = 0
        self.resumed = False
        initial_state: Optional[DecisionState] = None
        start_ns = 0.0
        if restore:
            stored = self.checkpoint_store.load()
            if stored is not None:
                self.resumed = True
                start_ns = float(stored["time_ns"])
                self.start_epoch = int(stored["epoch"]) + 1
                initial_state = DecisionState.from_dict(
                    stored["controller"])
        self.clock = VirtualClock(start_ns=start_ns)
        self._initial_state = initial_state

        epoch_s = config.epoch_ns / 1e9
        self.trace = (trace_source if trace_source is not None
                      else DiurnalTraceSource(
                          config.group_names,
                          epochs_per_day=config.epochs_per_day,
                          peak_gbps=config.peak_gbps,
                          seed=config.seed))
        self.plant = plant if plant is not None else FabricPlant(
            config.group_names, ladder=config.ladder,
            epoch_ns=config.epoch_ns,
            reactivation_ns=config.reactivation_ns,
            queue_cap_gbs=config.ladder.max_rate * epoch_s,
            strand_grace_epochs=config.strand_grace_epochs)
        self.chaos = None
        if scenario is not None or slow is not None:
            self.chaos = ServiceChaos(self.clock, scenario=scenario,
                                      slow=slow, decision_log=self.log,
                                      epoch_ns=config.epoch_ns)
        # The supervisor's memory: a gate-off marks a group dark; a wake,
        # a safe-floor send, a recovery or any changed send marks it lit.
        # Only the supervisor reads it, so an unsupervised service keeps
        # none and its records skip the tap.
        self.power_journal: Optional[PowerJournal] = None
        if config.supervised:
            self.power_journal = PowerJournal(
                (GATED_OFF,),
                (GATED_WAKE, SERVICE_SAFE_FLOOR, SERVICE_RECOVERED),
                lit_on_change=True, cap=config.journal_cap)
            self.log.taps.append(self.power_journal.observe)
        self.stream = TelemetryStream(
            self.clock,
            capacity=config.stream_capacity if config.shedding else None,
            high_watermark=config.high_watermark,
            low_watermark=config.low_watermark,
            on_shed=self._on_shed)
        self.transport = ActuationTransport(
            self.clock, self.plant, chaos=self.chaos,
            base_delay_ns=config.send_delay_ns,
            ack_delay_ns=config.ack_delay_ns, on_ack=self._on_ack)
        self.supervisor = (Supervisor(self.clock, self, self.log,
                                      self.power_journal)
                           if config.supervised else None)

        self.loop: Optional[ServiceDecisionLoop] = None
        self.loop_task: Optional[asyncio.Task] = None
        self.sheds = 0
        self.checkpoints = 0
        self._seq = 0
        self._latency_all: List[float] = []
        self._latency_hist = self.metrics.histogram(
            "service_decision_latency_ns",
            buckets=SERVICE_LATENCY_BUCKETS_NS,
            help="telemetry emission to decision emission, virtual ns")
        self._decisions_counter = self.metrics.counter(
            "service_decisions_total", help="rate decisions made")
        self._shed_counter = self.metrics.counter(
            "service_shed_total", help="telemetry records shed")
        self._retry_counter = self.metrics.counter(
            "service_retries_total", help="journal re-sends")
        self._restart_counter = self.metrics.counter(
            "service_restarts_total", help="supervisor restarts")
        self._backlog_gauge = self.metrics.gauge(
            "service_ingest_backlog", help="queued telemetry records")
        self._dps_gauge = self.metrics.gauge(
            "service_decisions_per_sec",
            help="decisions per virtual second")

    # -- wiring callbacks --------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _on_ack(self, command, changed: bool) -> None:
        if self.loop is not None:
            self.loop.on_ack(command, changed)

    def _on_shed(self, record) -> None:
        self.sheds += 1
        self._shed_counter.inc()
        self.log.record(self.clock.now_ns, "service", record.group, (),
                        None, None, SERVICE_SHED, False)
        if self.capture_events:
            self.events.append({"kind": "shed",
                                "time_ns": self.clock.now_ns,
                                "group": record.group})

    def _observe_latency(self, latency_ns: float) -> None:
        self._latency_hist.observe(latency_ns)
        self._decisions_counter.inc(self.config.groups)
        if self.capture_events:
            self.events.append({
                "kind": "decision_pass",
                "start_ns": self.clock.now_ns - latency_ns,
                "dur_ns": latency_ns})

    # -- loop lifecycle ----------------------------------------------------

    def spawn_decision_loop(self, state: Optional[DecisionState]
                            ) -> ServiceDecisionLoop:
        """Create and start a (re)incarnation of the decision loop."""
        if self.loop is not None:
            self._latency_all.extend(self.loop.latency_ns)
        self.loop = ServiceDecisionLoop(
            self.clock, self.config, self.stream, self.transport,
            self.log, chaos=self.chaos, state=state,
            latency_observer=self._observe_latency)
        self.loop_task = self.clock.create_task(self.loop.run())
        self.clock.note()
        return self.loop

    def load_checkpoint_state(self) -> Optional[DecisionState]:
        """The latest checkpoint's controller state, or ``None``."""
        stored = self.checkpoint_store.load()
        if stored is None:
            return None
        return DecisionState.from_dict(stored["controller"])

    def checkpoint_state(self) -> Dict[str, Any]:
        """The full checkpoint payload for the current state."""
        assert self.loop is not None
        return {
            "epoch": self.loop.state.decided_epoch,
            "time_ns": self.clock.now_ns,
            "controller": self.loop.state.to_dict(),
        }

    # -- the tasks ---------------------------------------------------------

    async def _generate(self) -> None:
        config = self.config
        for epoch in range(self.start_epoch, config.epochs):
            await self.clock.sleep_until((epoch + 1) * config.epoch_ns)
            now = self.clock.now_ns
            demands = {name: self.trace.demand(name, epoch)
                       for name in config.group_names}
            self.plant.step(epoch, now, demands)
            for record in self.plant.telemetry(epoch, now,
                                               self._next_seq):
                delivered = (self.chaos.deliver(record)
                             if self.chaos is not None else record)
                if delivered is not None:
                    self.stream.offer(delivered)
            self.stream.offer(EpochTick(seq=self._next_seq(),
                                        epoch=epoch, time_ns=now))
            self._backlog_gauge.set(self.stream.data_backlog())
            if self.capture_events:
                self.events.append({
                    "kind": "backlog", "time_ns": now,
                    "value": self.stream.data_backlog()})

    async def _checkpointer(self) -> None:
        config = self.config
        epoch = self.start_epoch
        while True:
            await self.clock.sleep_until(
                (epoch + 1 + config.checkpoint_offset_epochs)
                * config.epoch_ns)
            if (epoch - self.start_epoch) \
                    % config.checkpoint_interval_epochs == 0:
                self.checkpoint_store.save(self.checkpoint_state())
                self.checkpoints += 1
            epoch += 1

    async def _crash_at(self, crash) -> None:
        await self.clock.sleep_until(crash.time_ns)
        if self.loop_task is not None and not self.loop_task.done():
            self.loop_task.cancel()
            if self.chaos is not None:
                self.chaos.note_crash(self.clock.now_ns)
            self.clock.note()
        if crash.restart_after_epochs is not None:
            await self.clock.sleep(crash.restart_after_epochs
                                   * self.config.epoch_ns)
            if self.loop_task is not None and self.loop_task.done():
                # The DSL's cold restart: no checkpoint, no journal —
                # volatile state is simply gone.
                self.spawn_decision_loop(None)
                if self.chaos is not None:
                    self.chaos.note_restart(self.clock.now_ns)

    async def _main(self) -> None:
        config = self.config
        self.spawn_decision_loop(self._initial_state)
        tasks = [self.clock.create_task(coro)
                 for coro in self._background_coros()]
        try:
            # One drain epoch past the horizon lets the final tick's
            # decisions and acks land before the summary is cut.
            await self.clock.drive((config.epochs + 1)
                                   * config.epoch_ns)
        finally:
            for task in tasks + [self.loop_task]:
                if task is not None:
                    task.cancel()
            await self.clock.gather(
                *(t for t in tasks + [self.loop_task] if t is not None))

    def _background_coros(self):
        coros = [self._generate()]
        if self.checkpoint_store is not None:
            coros.append(self._checkpointer())
        if self.supervisor is not None:
            coros.append(self.supervisor.run())
        if self.chaos is not None:
            for crash in self.chaos.crash_times():
                coros.append(self._crash_at(crash))
        return coros

    # -- entry point -------------------------------------------------------

    def run(self) -> ServiceSummary:
        """Run to the horizon and summarize."""
        started = time.perf_counter()
        self.clock.run(self._main())
        return self.summarize(time.perf_counter() - started)

    def summarize(self, wall_seconds: float = 0.0) -> ServiceSummary:
        """The run's digest (callable after :meth:`run`)."""
        config = self.config
        state = self.loop.state
        latencies = sorted(self._latency_all + self.loop.latency_ns)
        epochs_run = config.epochs - self.start_epoch
        duration_s = epochs_run * config.epoch_ns / 1e9
        dps = (state.decisions_made / duration_s
               if duration_s > 0 else 0.0)
        self._dps_gauge.set(dps)
        # Top the counters up to the run's totals, so summarizing again
        # does not count the run twice.
        restarts = (self.supervisor.restarts
                    if self.supervisor is not None else 0)
        self._restart_counter.inc(restarts - self._restart_counter.value)
        self._retry_counter.inc(state.retries - self._retry_counter.value)
        return ServiceSummary(
            epochs=epochs_run,
            duration_s=duration_s,
            resumed=self.resumed,
            decisions=state.decisions_made,
            decisions_per_sec=dps,
            latency_mean_ns=(left_sum(latencies) / len(latencies)
                             if latencies else 0.0),
            latency_p50_ns=_percentile(latencies, 0.50),
            latency_p90_ns=_percentile(latencies, 0.90),
            latency_p99_ns=_percentile(latencies, 0.99),
            latency_max_ns=latencies[-1] if latencies else 0.0,
            stale_holds=state.stale_holds,
            safe_floors=state.safe_floors,
            fleet_floor_epochs=state.fleet_floor_epochs,
            retries=state.retries,
            retry_exhausted=state.retry_exhausted,
            journal_evictions=state.journal_evictions,
            acks=state.acks,
            gate_offs=state.gate_offs,
            wakes=state.wakes,
            sheds=self.sheds,
            backpressure_raises=self.stream.backpressure_raises,
            max_backlog=self.stream.max_backlog,
            restarts=restarts,
            recoveries=(self.supervisor.recoveries
                        if self.supervisor is not None else 0),
            checkpoints=self.checkpoints,
            partitions=self.plant.partitions,
            stranded_epochs=self.plant.stranded_epochs,
            served_fraction=self.plant.served_fraction,
            mean_rate_fraction=self.plant.mean_rate_fraction,
            reason_counts=dict(sorted(self.log.reason_counts.items())),
            transport=self.transport.digest(),
            control_plane=(self.chaos.digest()
                           if self.chaos is not None else None),
            wall_seconds=wall_seconds)

"""Controller decision audit log.

Figures 7-9 are *consequences* of epoch-controller decisions; this
module records the decisions themselves.  Every epoch, for every
control group, the controller reports what it saw (the sensor reading),
what it did (old rate -> new rate) and *why* (a reason code), into a
:class:`DecisionLog`:

- a **bounded ring buffer** of full :class:`Decision` records
  (attachable, bounded, queryable),
- an optional **JSONL spill** writing every record to disk as it is
  made — full fidelity even when the ring has wrapped,
- always-on **aggregate counters**: decisions by reason and rate
  transitions by ``(old, new)`` pair.  The aggregates are exact however
  small the ring is, which is what lets
  :func:`repro.experiments.runner.run_simulation` audit every run at
  near-zero cost (``max_records=0``) and still prove, in the run
  record, that the log accounts for every reconfiguration counted in
  the final stats,
- **taps**: observers called with ``(reason, group, time_ns,
  changed)`` for every record, which is how the failsafe guard and the
  service remember power intent (each registers a
  :class:`repro.core.safety.PowerJournal`).

Controllers call :meth:`DecisionLog.record` with the decision's
fields, not with a built record.  A :class:`Decision` is built only
when the ring keeps it or the spill writes it, so the counters-only
audit (``max_records=0``, no spill) builds none: it costs the counter
updates and the taps, nothing more.  Retained records and spilled
lines are the same whichever way the log is configured.

Reason codes:

- ``above_threshold`` / ``below_threshold`` — the policy moved the rate
  up / down and the group reconfigured.
- ``reactivation_pending`` — the policy asked for a rate the group is
  already re-locking toward, so no new reconfiguration was initiated
  (the reactivation-penalty hold).
- ``clamped_max`` / ``clamped_min`` — demand pushed past the ladder
  edge the group already sits at.
- ``hold`` — the policy kept the current rate (on-target, or inside a
  hysteresis band).
- ``powered_off`` — the group was skipped because a member channel is
  powered down (dynamic topologies, §5.1).

The predictive controller (:mod:`repro.predict.controller`) extends the
taxonomy with three forecast-attributed codes, emitted only when its
forecast actually deviates from the trailing observation (so a
degenerate last-value forecaster reproduces the reactive reason stream
bit-for-bit):

- ``forecast_ramp_up`` — the rate was raised *before* observed demand
  crossed the policy threshold: the forecast, not the epoch's raw
  utilization, drove the up-step (the proactive ramp of Section 5.2's
  "more aggressive" policies).
- ``forecast_hold`` — raw utilization alone would have stepped the rate
  down, but the forecast predicted returning demand and held it.
- ``forecast_miss`` — demand arrived beyond what the previous epoch's
  forecast (plus headroom) provisioned for, and the controller is now
  ramping up *late* — the reactive-penalty case prediction exists to
  eliminate, so counting these measures forecast quality in place.

The fault-campaign layer (:mod:`repro.faults`) adds six codes, emitted
with ``changed=False`` so they never perturb the transition audit
(``transition_counts`` still sums exactly to ``reconfigurations``):

- ``fault_down`` / ``fault_repair`` — the injector took a link down /
  brought it back (the fault timeline, rendered as trace instants).
- ``partition`` — a drop proved the usable fabric disconnected (one
  record per distinct component signature, not per dropped packet).
- ``gated_off`` / ``gated_wake`` — the fault-aware controller powered a
  persistently idle-looking group fully off / woke it back up.
- ``pinned_hold`` — gating wanted a group off but the spanning-set
  guard pinned it at minimum-rate-on instead.

The control-plane chaos layer (:mod:`repro.faults.control_faults`) and
its failsafe counterpart (:mod:`repro.core.failsafe`) add eleven codes,
all emitted with ``changed=False`` by the injection/guard machinery
itself (guard *actuations* that change a rate are separately counted in
the guard's own ``reconfigurations``, summed into the run total):

- ``control_fault_telemetry_lost`` / ``_stale`` / ``_corrupt`` — what
  the chaos layer did to a group's epoch reading before the controller
  saw it (lost readings are delivered as zeros: the naive controller
  mistakes silence for idleness).
- ``control_fault_actuation_lost`` / ``_delayed`` — a controller rate
  command that was dropped (the controller *believes* it applied) or
  deferred by the actuation path.
- ``control_fault_crash`` / ``control_fault_restart`` — the controller
  process died / came back with cold (empty) volatile state.
- ``failsafe_hold`` — bounded-staleness fallback: telemetry went dark
  and the guard re-applied the last known-good rate within its TTL.
- ``failsafe_deadman`` — the deadman watchdog ramped a silent group to
  the safe rate floor (and woke it if gating had powered it off).
- ``failsafe_retry`` — the guard detected an intended-vs-actual rate
  mismatch and re-issued the actuation (seeded exponential backoff).
- ``failsafe_recovered`` — crash recovery: the guard reconstructed
  lost controller intent from its decision journal after a restart.

The topology control plane (:mod:`repro.topo` and the Section 5.1
ladder in :mod:`repro.core.dynamic_topology`) adds four codes, emitted
with ``changed=False`` like the gating events (topology actuations act
on whole link groups through drain/power-off, not through the rate
ladder, so they never perturb the transition audit):

- ``topology_off`` / ``topology_on`` — the topology controller powered
  a link group fully off on low (forecast) demand / reactivated it as
  demand returned, paying the reactivation stall.
- ``topology_held`` — hysteresis: a wanted state change was suppressed
  because the group is still inside its minimum dwell window.
- ``topology_guard_veto`` — the connectivity guard refused a power-off
  because the spanning set would not survive it *given the links
  already dark from faults* (the powered-off/faulted intersection).

The live control-plane service (:mod:`repro.service`) adds six codes
covering its robustness envelope — all emitted with ``changed=False``
by the service machinery itself (actual rate changes it actuates are
ordinary ladder decisions recorded under the reactive reasons):

- ``service_shed`` — the bounded ingest stream crossed its high
  watermark and shed the *oldest* queued reading of a group (the
  newest is never shed, so the controller always decides on the
  freshest survivor).
- ``service_stale_hold`` — a group's telemetry aged past one epoch but
  is still inside the staleness TTL: the decision loop held the
  last-good rate instead of chasing silence.
- ``service_safe_floor`` — telemetry aged past the TTL (or enough of
  the fleet did): the group was ramped to the safe floor rate, and
  woken if gating had powered it off — the service analogue of
  ``failsafe_deadman``.
- ``service_retry`` — an actuation got no acknowledgement inside the
  timeout and was re-sent from the intent journal (seeded exponential
  backoff, bounded attempts, idempotent on the plant).
- ``service_restart`` — the supervisor's deadman tripped on a silent
  decision loop and cold-restarted it from the latest checkpoint.
- ``service_recovered`` — post-restart reconciliation: the supervisor
  re-derived a gated-off group from the DecisionLog journal and woke
  it (the :meth:`repro.core.failsafe.FailsafeGuard` ``release_gate``
  semantics, applied across a process restart).

The taxonomy is **closed**: :meth:`DecisionLog.record` raises
``ValueError`` on a reason outside :data:`REASONS` rather than silently
counting a typo as a new category (aggregate counters keyed by
free-form strings would otherwise mask the bug forever).
"""

from __future__ import annotations

import collections
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

#: Reason codes (see module docstring).
ABOVE_THRESHOLD = "above_threshold"
BELOW_THRESHOLD = "below_threshold"
REACTIVATION_PENDING = "reactivation_pending"
CLAMPED_MAX = "clamped_max"
CLAMPED_MIN = "clamped_min"
HOLD = "hold"
POWERED_OFF = "powered_off"
FORECAST_RAMP_UP = "forecast_ramp_up"
FORECAST_HOLD = "forecast_hold"
FORECAST_MISS = "forecast_miss"
FAULT_DOWN = "fault_down"
FAULT_REPAIR = "fault_repair"
PARTITION = "partition"
GATED_OFF = "gated_off"
GATED_WAKE = "gated_wake"
PINNED_HOLD = "pinned_hold"
CONTROL_FAULT_TELEMETRY_LOST = "control_fault_telemetry_lost"
CONTROL_FAULT_TELEMETRY_STALE = "control_fault_telemetry_stale"
CONTROL_FAULT_TELEMETRY_CORRUPT = "control_fault_telemetry_corrupt"
CONTROL_FAULT_ACTUATION_LOST = "control_fault_actuation_lost"
CONTROL_FAULT_ACTUATION_DELAYED = "control_fault_actuation_delayed"
CONTROL_FAULT_CRASH = "control_fault_crash"
CONTROL_FAULT_RESTART = "control_fault_restart"
FAILSAFE_HOLD = "failsafe_hold"
FAILSAFE_DEADMAN = "failsafe_deadman"
FAILSAFE_RETRY = "failsafe_retry"
FAILSAFE_RECOVERED = "failsafe_recovered"
TOPOLOGY_OFF = "topology_off"
TOPOLOGY_ON = "topology_on"
TOPOLOGY_HELD = "topology_held"
TOPOLOGY_GUARD_VETO = "topology_guard_veto"
SERVICE_SHED = "service_shed"
SERVICE_STALE_HOLD = "service_stale_hold"
SERVICE_SAFE_FLOOR = "service_safe_floor"
SERVICE_RETRY = "service_retry"
SERVICE_RESTART = "service_restart"
SERVICE_RECOVERED = "service_recovered"

#: The control-plane chaos subset (what the fault injector did).
CONTROL_FAULT_REASONS = (CONTROL_FAULT_TELEMETRY_LOST,
                         CONTROL_FAULT_TELEMETRY_STALE,
                         CONTROL_FAULT_TELEMETRY_CORRUPT,
                         CONTROL_FAULT_ACTUATION_LOST,
                         CONTROL_FAULT_ACTUATION_DELAYED,
                         CONTROL_FAULT_CRASH, CONTROL_FAULT_RESTART)

#: The failsafe-guard subset (how the guard compensated).
FAILSAFE_REASONS = (FAILSAFE_HOLD, FAILSAFE_DEADMAN,
                    FAILSAFE_RETRY, FAILSAFE_RECOVERED)

#: The topology-control subset (demand-aware power-off decisions,
#: rendered on the trace's topology track).
TOPOLOGY_REASONS = (TOPOLOGY_OFF, TOPOLOGY_ON, TOPOLOGY_HELD,
                    TOPOLOGY_GUARD_VETO)

#: The live-service subset (how the async control-plane service kept
#: the fabric safe: shedding, degraded modes, retries, restarts).
SERVICE_REASONS = (SERVICE_SHED, SERVICE_STALE_HOLD, SERVICE_SAFE_FLOOR,
                   SERVICE_RETRY, SERVICE_RESTART, SERVICE_RECOVERED)

#: Every legal reason code (closed set; ``DecisionLog.record`` rejects
#: anything else).
REASONS = (ABOVE_THRESHOLD, BELOW_THRESHOLD, REACTIVATION_PENDING,
           CLAMPED_MAX, CLAMPED_MIN, HOLD, POWERED_OFF,
           FORECAST_RAMP_UP, FORECAST_HOLD, FORECAST_MISS,
           FAULT_DOWN, FAULT_REPAIR, PARTITION,
           GATED_OFF, GATED_WAKE, PINNED_HOLD) \
    + CONTROL_FAULT_REASONS + FAILSAFE_REASONS + TOPOLOGY_REASONS \
    + SERVICE_REASONS

#: The fault-campaign subset (rendered on the trace's fault track).
FAULT_REASONS = (FAULT_DOWN, FAULT_REPAIR, PARTITION,
                 GATED_OFF, GATED_WAKE, PINNED_HOLD)

_KNOWN_REASONS = frozenset(REASONS)


def classify_reason(old_rate: float, new_rate: float, changed: bool,
                    estimate: float, ladder, policy=None) -> str:
    """The reason code for one epoch decision.

    Args:
        old_rate: Rate the group ran the epoch at.
        new_rate: Rate the policy returned for the next epoch.
        changed: Whether the group actually initiated a reconfiguration.
        estimate: The sensor's demand estimate the policy saw.
        ladder: The legal :class:`~repro.power.link_rates.RateLadder`.
        policy: The deciding policy; its ``target_utilization`` (or
            hysteresis ``low``/``high``) attributes, when present,
            distinguish a clamped decision from a deliberate hold.
    """
    if changed:
        return ABOVE_THRESHOLD if new_rate > old_rate else BELOW_THRESHOLD
    if new_rate != old_rate:
        return REACTIVATION_PENDING
    target = getattr(policy, "target_utilization", None)
    high = getattr(policy, "high", target)
    low = getattr(policy, "low", target)
    if high is not None and estimate > high and old_rate == ladder.max_rate:
        return CLAMPED_MAX
    if low is not None and estimate < low and old_rate == ladder.min_rate:
        return CLAMPED_MIN
    return HOLD


@dataclass(frozen=True, init=False)
class Decision:
    """One epoch decision for one control group.

    Frozen, with a hand-written initializer: a run builds one per
    group per epoch (and per injected fault), and the generated frozen
    ``__init__`` pays one ``object.__setattr__`` per field.  This one
    stores the whole instance dict at once; its parameters, their
    order and defaults are the field list's (a test pins that).

    Attributes:
        time_ns: Simulation time of the decision.
        controller: Label of the deciding controller (``"epoch"``,
            ``"lane"``, or a per-chip name like ``"sw3"``).
        group: Control-group name (channel or link-pair identifier).
        channels: Names of the member channels.
        old_rate: Rate (Gb/s) the group ran the epoch at.
        new_rate: Rate (Gb/s) decided for the next epoch.
        reason: One of :data:`REASONS`.
        changed: Whether a reconfiguration was actually initiated.
        estimate: The sensor's demand estimate the policy thresholded.
        utilization: Raw busy fraction over the epoch.
        queue_fraction: Worst member output-queue occupancy at epoch end.
        credit_stalls: Credit-blocked transmission attempts in the epoch.
        reactivation_ns: Stall the transition costs (0 when unchanged).
        old_mode: Optional richer operating-point label (lane ladders).
        new_mode: Optional richer operating-point label (lane ladders).
        forecast_gbps: Demand (Gb/s) the predictive controller forecast
            for the *next* epoch (``None`` for reactive controllers).
        observed_gbps: Demand (Gb/s) actually observed over the epoch
            just ended (``None`` for reactive controllers).
    """

    time_ns: float
    controller: str
    group: str
    channels: Tuple[str, ...]
    old_rate: Optional[float]
    new_rate: Optional[float]
    reason: str
    changed: bool
    estimate: float = 0.0
    utilization: float = 0.0
    queue_fraction: float = 0.0
    credit_stalls: int = 0
    reactivation_ns: float = 0.0
    old_mode: Optional[str] = None
    new_mode: Optional[str] = None
    forecast_gbps: Optional[float] = None
    observed_gbps: Optional[float] = None

    def __init__(self, time_ns: float, controller: str, group: str,
                 channels: Tuple[str, ...], old_rate: Optional[float],
                 new_rate: Optional[float], reason: str, changed: bool,
                 estimate: float = 0.0, utilization: float = 0.0,
                 queue_fraction: float = 0.0, credit_stalls: int = 0,
                 reactivation_ns: float = 0.0,
                 old_mode: Optional[str] = None,
                 new_mode: Optional[str] = None,
                 forecast_gbps: Optional[float] = None,
                 observed_gbps: Optional[float] = None):
        object.__setattr__(self, "__dict__", {
            "time_ns": time_ns, "controller": controller, "group": group,
            "channels": channels, "old_rate": old_rate,
            "new_rate": new_rate, "reason": reason, "changed": changed,
            "estimate": estimate, "utilization": utilization,
            "queue_fraction": queue_fraction,
            "credit_stalls": credit_stalls,
            "reactivation_ns": reactivation_ns, "old_mode": old_mode,
            "new_mode": new_mode, "forecast_gbps": forecast_gbps,
            "observed_gbps": observed_gbps})

    def to_dict(self) -> Dict[str, object]:
        """The decision as a JSON-safe dict (channels as a list).

        What ``dataclasses.asdict`` returns, copied straight from the
        instance dict: every field is a scalar but ``channels``.
        """
        out = dict(self.__dict__)
        out["channels"] = list(self.channels)
        return out


class DecisionLog:
    """Bounded ring buffer of decisions with exact aggregate counters.

    Args:
        max_records: Ring-buffer bound.  ``None`` retains everything
            (trace export), ``0`` keeps counters only (the run
            harness's always-on audit).
        spill_path: Optional JSONL file; every record (and epoch mark)
            is appended as it happens, unaffected by the ring bound.
    """

    def __init__(self, max_records: Optional[int] = 100_000,
                 spill_path: Optional[Path] = None):
        if max_records is not None and max_records < 0:
            raise ValueError(
                f"max_records must be >= 0 or None, got {max_records}")
        self.max_records = max_records
        self.records: Deque[Decision] = collections.deque(
            maxlen=max_records)
        #: Epoch-boundary times (same retention bound as the ring).
        self.epochs: Deque[float] = collections.deque(maxlen=max_records)
        self.reason_counts: Dict[str, int] = {}
        #: ``(old_rate, new_rate) -> count`` over *initiated* transitions.
        self.transition_counts: Dict[Tuple[float, float], int] = {}
        self.decisions_recorded = 0
        #: Observer callables invoked as ``tap(reason, group, time_ns,
        #: changed)`` for every recorded decision (after validation and
        #: counting), whether or not a :class:`Decision` is kept: the
        #: failsafe guard and the service's power journal register one
        #: to journal power intent, and read nothing else.  Empty by
        #: default, so the hot path pays one truthiness check.
        self.taps: List[Callable[[str, str, float, bool], None]] = []
        self._spill_path = Path(spill_path) if spill_path else None
        self._spill_file = None
        if self._spill_path is not None:
            self._spill_path.parent.mkdir(parents=True, exist_ok=True)
            self._spill_file = open(self._spill_path, "a",
                                    encoding="utf-8")

    # -- recording (called by the controllers) --------------------------

    def record(self, time_ns: float, controller: str, group: str,
               channels: Tuple[str, ...], old_rate: Optional[float],
               new_rate: Optional[float], reason: str, changed: bool,
               estimate: float = 0.0, utilization: float = 0.0,
               queue_fraction: float = 0.0, credit_stalls: int = 0,
               reactivation_ns: float = 0.0,
               old_mode: Optional[str] = None,
               new_mode: Optional[str] = None,
               forecast_gbps: Optional[float] = None,
               observed_gbps: Optional[float] = None) -> None:
        """Count one decision; keep and spill it if the log does.

        The parameters are :class:`Decision`'s fields, in its order
        and with its defaults.  The counters always move; a
        :class:`Decision` is built only when the ring keeps it
        (``max_records != 0``) or the spill file writes it, so the
        counters-only audit every run carries builds none.  Taps get
        ``(reason, group, time_ns, changed)``.

        Raises:
            ValueError: If ``reason`` is not in :data:`REASONS` — the
                taxonomy is closed, so a typo'd or unregistered reason
                fails loudly instead of accumulating under a phantom
                category.
        """
        if reason not in _KNOWN_REASONS:
            raise ValueError(
                f"unknown decision reason {reason!r}; legal "
                f"reasons: {', '.join(REASONS)}")
        self.decisions_recorded += 1
        counts = self.reason_counts
        counts[reason] = counts.get(reason, 0) + 1
        if changed:
            key = (old_rate, new_rate)
            self.transition_counts[key] = (
                self.transition_counts.get(key, 0) + 1)
        if self.max_records != 0 or self._spill_file is not None:
            decision = Decision(
                time_ns, controller, group, channels, old_rate, new_rate,
                reason, changed, estimate, utilization, queue_fraction,
                credit_stalls, reactivation_ns, old_mode, new_mode,
                forecast_gbps, observed_gbps)
            if self.max_records != 0:
                self.records.append(decision)
            if self._spill_file is not None:
                self._spill_file.write(
                    json.dumps(decision.to_dict(), sort_keys=True) + "\n")
        if self.taps:
            for tap in self.taps:
                tap(reason, group, time_ns, changed)

    def epoch_mark(self, time_ns: float) -> None:
        """Record one controller epoch boundary."""
        self.epochs.append(time_ns)
        if self._spill_file is not None:
            self._spill_file.write(
                json.dumps({"epoch_ns": time_ns}, sort_keys=True) + "\n")

    def close(self) -> None:
        """Flush and close the spill file (idempotent)."""
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None

    def __enter__(self) -> "DecisionLog":
        """Context-manager entry; returns the log itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the spill file."""
        self.close()

    # -- queries ---------------------------------------------------------

    @property
    def transitions_recorded(self) -> int:
        """Total reconfigurations initiated — exact however small the
        ring is, and equal to the controllers' ``reconfigurations``."""
        return sum(self.transition_counts.values())

    def transitions(self) -> List[Decision]:
        """Retained records that initiated a reconfiguration."""
        return [d for d in self.records if d.changed]

    def transition_counts_list(self) -> List[List[object]]:
        """Transition counts as sorted ``[old, new, count]`` rows.

        JSON-safe and deterministically ordered, so it can live inside
        a cached :class:`~repro.experiments.runner.SimulationSummary`
        and replay bit-identically.
        """
        return [[old, new, count] for (old, new), count in
                sorted(self.transition_counts.items())]

    def format_line(self) -> str:
        """One printable line: decisions, transitions, reason mix."""
        reasons = ", ".join(f"{reason}={self.reason_counts[reason]}"
                            for reason in REASONS
                            if reason in self.reason_counts)
        return (f"{self.decisions_recorded} decisions, "
                f"{self.transitions_recorded} transitions"
                + (f" ({reasons})" if reasons else ""))

    def __len__(self) -> int:
        """Number of retained (not total) records."""
        return len(self.records)

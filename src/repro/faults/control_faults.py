"""Control-plane fault injection: chaos between sensors and controller.

PR 4 (:mod:`repro.faults.scenario`) broke the *data plane* — links and
switch chips fail, sensors lie at the source.  This module breaks the
**control plane itself**: the path a reading travels from the switch's
tap to the controller, the path a decision travels back to the
serializer, and the controller process's own lifetime.  The paper's
epoch loop assumes all three are perfect; any real deployment of it (a
controller process polling switch counters and pushing rate commands)
loses telemetry reports, applies commands late or not at all, and gets
restarted by its supervisor with cold state.

The DSL is declarative and seeded, mirroring the data-plane scenario
DSL:

- :class:`TelemetryDropout` — a group's epoch report is lost in flight.
  The controller receives a **zero reading** (silence is
  indistinguishable from idleness — the signature control-plane
  hazard: a naive gating controller powers "idle" links off).
- :class:`StaleTelemetry` — the report delivered is ``epochs`` old
  (a congested or buffering telemetry pipeline).
- :class:`CorruptReading` — the delivered report is wrong
  (stuck-at-value or scaled), without any transport-level signal.
- :class:`DecisionDelay` — a rate command applies ``epochs`` late; the
  controller believes it applied immediately.
- :class:`DecisionLoss` — a rate command is silently dropped; the
  controller *still believes it applied* (the return value claims
  success), so its model of the fabric diverges from reality.
- :class:`ControllerCrash` — the controller process dies at an
  absolute time and (optionally) restarts after N epochs with **cold
  volatile state** (:meth:`repro.core.controller.EpochController.
  cold_restart`): every in-memory accumulator — gating bookkeeping,
  sensor smoothing — is gone.

One injector applies a scenario, whoever drives it:
:class:`ControlFaultInjector` decides every fault and keeps the
counters and the audit, without IO.  Two drivers inherit it and add
only their seams.  In the simulator, :class:`ControlPlaneChaos`
injects through a **group proxy** (:class:`ChaosGroup`): it replaces
every entry of ``controller.groups`` with a wrapper that intercepts
the telemetry reads (``utilization_since_last`` /
``max_queue_fraction`` / ``credit_stalls_since_last``) and the
actuation (``set_rate``) and delegates everything else.  This works
for *any* registry-routed controller — reactive, predictive,
fault-aware — because the group API is the single seam every
controller already goes through.  The live service's driver is
:class:`repro.service.faults.ServiceChaos`, on its record and command
streams.

Determinism: every stochastic choice is a **stateless hashed draw** —
``keyed_draw(f"ctl:{seed}:{kind}:{group}:{epoch}")`` (``svc:`` in the
service), the first value of a ``random.Random`` seeded with that key
(:mod:`repro.keyed`) — so the fault process is independent of
``PYTHONHASHSEED``, of query order, and identical between a protected
and an unprotected arm of the same campaign (CPython seeds string
arguments through SHA-512, not ``hash()``).

Everything the injector does is auditable: each induced loss, stale
delivery, corruption, dropped/delayed actuation, crash and restart is
recorded in the :class:`~repro.obs.decisions.DecisionLog` under the
``control_fault_*`` reasons with ``changed=False`` (the transition
audit — ``transition_counts`` summing to ``reconfigurations`` — is
untouched), and aggregated in :meth:`ControlFaultInjector.digest` for
the run summary's ``control_plane`` field.  A reading that several
telemetry faults hit has one outcome, the last stage's: a stale report
that is then lost counts as lost only.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.keyed import keyed_draw
from repro.obs.decisions import (
    CONTROL_FAULT_ACTUATION_DELAYED,
    CONTROL_FAULT_ACTUATION_LOST,
    CONTROL_FAULT_CRASH,
    CONTROL_FAULT_RESTART,
    CONTROL_FAULT_TELEMETRY_CORRUPT,
    CONTROL_FAULT_TELEMETRY_LOST,
    CONTROL_FAULT_TELEMETRY_STALE,
    DecisionLog,
)

#: Pseudo group name stamped on controller-lifetime audit records.
CONTROLLER_GROUP = "__controller__"


# ---------------------------------------------------------------------------
# The declarative fault DSL
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryDropout:
    """Epoch reports vanish in flight; the controller reads zeros.

    Attributes:
        fraction: Fraction of groups affected (hash-selected, stable
            for the whole run).
        probability: Per affected group-epoch loss probability.
        start_ns / end_ns: Active window (``end_ns=None`` = horizon).
    """

    fraction: float = 1.0
    probability: float = 1.0
    start_ns: float = 0.0
    end_ns: Optional[float] = None


@dataclass(frozen=True)
class StaleTelemetry:
    """Delivered reports are ``epochs`` old (buffered pipeline)."""

    epochs: int = 1
    fraction: float = 1.0
    start_ns: float = 0.0
    end_ns: Optional[float] = None


@dataclass(frozen=True)
class CorruptReading:
    """Delivered reports are wrong, with no transport-level signal.

    ``kind="stuck"`` pins utilization and queue fraction at ``value``
    (stalls to zero); ``kind="scale"`` multiplies them by ``factor``.
    """

    kind: str = "stuck"
    value: float = 0.0
    factor: float = 1.0
    fraction: float = 1.0
    start_ns: float = 0.0
    end_ns: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("stuck", "scale"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")


@dataclass(frozen=True)
class DecisionDelay:
    """Rate commands apply ``epochs`` late; the controller is not told."""

    epochs: int = 1
    fraction: float = 1.0
    probability: float = 1.0
    start_ns: float = 0.0
    end_ns: Optional[float] = None


@dataclass(frozen=True)
class DecisionLoss:
    """Rate commands are silently dropped; the return value still
    claims success, so the controller's model diverges from the
    fabric."""

    probability: float = 0.5
    fraction: float = 1.0
    start_ns: float = 0.0
    end_ns: Optional[float] = None


@dataclass(frozen=True)
class ControllerCrash:
    """The controller dies at ``time_ns``; optionally restarts cold.

    ``restart_after_epochs=None`` means it never comes back — the
    fabric is frozen at whatever rates (and power states) the last
    decisions left it in.
    """

    time_ns: float
    restart_after_epochs: Optional[int] = None


@dataclass(frozen=True)
class ControlFaultScenario:
    """A named, seeded bundle of control-plane faults."""

    name: str
    seed: int = 0
    dropout: Optional[TelemetryDropout] = None
    stale: Optional[StaleTelemetry] = None
    corrupt: Optional[CorruptReading] = None
    delay: Optional[DecisionDelay] = None
    loss: Optional[DecisionLoss] = None
    crashes: Tuple[ControllerCrash, ...] = ()


# ---------------------------------------------------------------------------
# The injector: one fault model, two drivers
# ---------------------------------------------------------------------------

class TelemetryFeed:
    """One group's telemetry as the injector tracks it.

    Attributes:
        name: The group's name (the key of its draws and audit records).
        lost_streak: Consecutive lost readings.
        history: ``(epoch, reading)`` of the latest readings, filled
            only when the scenario has a stale fault (nothing else
            reads it).
    """

    def __init__(self, name: str, depth: int):
        self.name = name
        self.lost_streak = 0
        self.history: Deque[Tuple[int, object]] = collections.deque(
            maxlen=depth)


class ControlFaultInjector:
    """Applies a :class:`ControlFaultScenario` to readings and
    commands, without IO.

    Decides every fault — which groups a fault selects, whether it
    fires, which stale report is in flight, what a command's fate is —
    and keeps the counters, the lost streaks and the audit.  A driver
    subclass supplies the seams: what a reading is (:meth:`_corrupt`,
    :attr:`lost_reading`), what the audit knows of a group
    (:meth:`_audit`), and what a lost or delayed command does.
    Draws are keyed ``f"{prefix}:{seed}:{kind}:{group}:{n}"`` and
    selections ``f"{prefix}sel:{seed}:{kind}:{group}"``.
    """

    #: Key prefix of the driver's draws (set by each driver).
    prefix: str
    #: What a lost reading reads as (set by each driver).
    lost_reading: object

    def __init__(self, scenario: Optional[ControlFaultScenario],
                 decision_log: Optional[DecisionLog], epoch_ns: float):
        self.scenario = scenario
        self.decision_log = decision_log
        self.epoch_ns = epoch_ns
        self.telemetry_lost = 0
        self.telemetry_stale = 0
        self.telemetry_corrupt = 0
        self.actuations_lost = 0
        self.actuations_delayed = 0
        self.crashes = 0
        self.restarts = 0
        self.max_lost_streak = 0
        #: (kind, group) -> the per-run selection draw; see _affected.
        self._selection: Dict[Tuple[str, str], float] = {}
        depth = 4
        if scenario is not None and scenario.stale is not None:
            depth = max(depth, scenario.stale.epochs + 2)
        #: Readings a feed keeps for the stale pick.
        self.history_depth = depth

    # -- determinism primitives ------------------------------------------

    def _affected(self, kind: str, group: str, fraction: float) -> bool:
        """Stable per-run group selection for one fault kind.

        The selection draw depends only on (seed, kind, group), so it
        is made once per run and remembered.
        """
        if fraction >= 1.0:
            return True
        if fraction <= 0.0:
            return False
        key = (kind, group)
        draw = self._selection.get(key)
        if draw is None:
            draw = keyed_draw(
                f"{self.prefix}sel:{self.scenario.seed}:{kind}:{group}")
            self._selection[key] = draw
        return draw < fraction

    def _draw(self, kind: str, group: str, n: int) -> float:
        """Stateless per-(kind, group, n) uniform draw."""
        return keyed_draw(
            f"{self.prefix}:{self.scenario.seed}:{kind}:{group}:{n}")

    @staticmethod
    def _active(fault, now: float) -> bool:
        """Whether ``fault`` (``None``: no fault) is in its window."""
        if fault is None or now < fault.start_ns:
            return False
        return fault.end_ns is None or now < fault.end_ns

    # -- telemetry pipeline ----------------------------------------------

    def _telemetry(self, feed: TelemetryFeed, epoch: int, now: float,
                   reading) -> Tuple[object, str, int]:
        """One reading through the faulty pipeline.

        Returns ``(reading, status, age)``.  Status is ``ok``,
        ``stale``, ``corrupt`` or ``lost``: one outcome per reading,
        the last stage that fires, which is what gets counted and
        audited.  Order matters: staleness picks which report is in
        flight, corruption mangles it, and a dropout loses whatever
        would have arrived.  ``age`` is the delivered report's age in
        epochs, or the lost streak when the reading is lost.
        """
        sc = self.scenario
        name = feed.name
        status, age = "ok", 0
        stale = sc.stale
        if stale is not None:
            history = feed.history
            history.append((epoch, reading))
            if (self._active(stale, now)
                    and self._affected("stale", name, stale.fraction)):
                target = epoch - stale.epochs
                chosen = history[0]
                for entry in history:
                    if entry[0] <= target:
                        chosen = entry
                if chosen[0] < epoch:
                    reading = chosen[1]
                    status, age = "stale", epoch - chosen[0]
        corrupt = sc.corrupt
        if (self._active(corrupt, now)
                and self._affected("corrupt", name, corrupt.fraction)):
            reading = self._corrupt(reading, corrupt)
            status = "corrupt"
        dropout = sc.dropout
        if (self._active(dropout, now)
                and self._affected("dropout", name, dropout.fraction)
                and self._draw("dropout", name, epoch)
                < dropout.probability):
            feed.lost_streak += 1
            self.telemetry_lost += 1
            self.max_lost_streak = max(self.max_lost_streak,
                                       feed.lost_streak)
            self._audit(now, feed, CONTROL_FAULT_TELEMETRY_LOST)
            return self.lost_reading, "lost", feed.lost_streak
        feed.lost_streak = 0
        if status == "stale":
            self.telemetry_stale += 1
            self._audit(now, feed, CONTROL_FAULT_TELEMETRY_STALE)
        elif status == "corrupt":
            self.telemetry_corrupt += 1
            self._audit(now, feed, CONTROL_FAULT_TELEMETRY_CORRUPT)
        return reading, status, age

    def _corrupt(self, reading, fault: CorruptReading):
        """``reading`` as ``fault`` mangles it."""
        raise NotImplementedError

    # -- actuation pipeline ----------------------------------------------

    def _actuation_fate(self, feed: TelemetryFeed, n: int, now: float,
                        new_rate: Optional[float] = None
                        ) -> Tuple[str, float]:
        """``(fate, late_ns)`` of one command to ``feed``'s group:
        ``ok``, ``lost`` or ``delayed`` (a loss outranks a delay), and
        how late a delayed one lands.  ``n`` indexes the draws."""
        sc = self.scenario
        name = feed.name
        loss = sc.loss
        if (self._active(loss, now)
                and self._affected("loss", name, loss.fraction)
                and self._draw("loss", name, n) < loss.probability):
            self.actuations_lost += 1
            self._audit(now, feed, CONTROL_FAULT_ACTUATION_LOST, new_rate)
            return "lost", 0.0
        delay = sc.delay
        if (self._active(delay, now)
                and self._affected("delay", name, delay.fraction)
                and self._draw("delay", name, n) < delay.probability):
            self.actuations_delayed += 1
            self._audit(now, feed, CONTROL_FAULT_ACTUATION_DELAYED,
                        new_rate)
            return "delayed", delay.epochs * self.epoch_ns
        return "ok", 0.0

    # -- controller lifetime ---------------------------------------------

    def note_crash(self, now: float) -> None:
        """Count and audit one controller crash."""
        self.crashes += 1
        self._audit(now, None, CONTROL_FAULT_CRASH)

    def note_restart(self, now: float) -> None:
        """Count and audit one cold restart."""
        self.restarts += 1
        self._audit(now, None, CONTROL_FAULT_RESTART)

    # -- audit ------------------------------------------------------------

    def _audit(self, now: float, feed: Optional[TelemetryFeed],
               reason: str, new_rate: Optional[float] = None) -> None:
        """Record one injection (``feed=None``: the controller itself;
        ``new_rate``: a command's rate).  This base records the group's
        name only."""
        if self.decision_log is not None:
            name = CONTROLLER_GROUP if feed is None else feed.name
            self.decision_log.record(now, "chaos", name, (), None, None,
                                     reason, False)

    def digest(self) -> Dict[str, object]:
        """JSON-safe injection accounting for the run summary."""
        return {
            "telemetry_lost": self.telemetry_lost,
            "telemetry_stale": self.telemetry_stale,
            "telemetry_corrupt": self.telemetry_corrupt,
            "actuations_lost": self.actuations_lost,
            "actuations_delayed": self.actuations_delayed,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "max_lost_streak": self.max_lost_streak,
        }


# ---------------------------------------------------------------------------
# The simulator driver: a group proxy
# ---------------------------------------------------------------------------

class ChaosGroup(TelemetryFeed):
    """A :class:`~repro.core.grouping.ChannelGroup` seen through a
    faulty control plane.

    Telemetry reads sample the wrapped group **exactly once per sim
    timestamp** (the underlying counters are delta-based and must be
    consumed once per epoch), push the true reading through the
    scenario's delivery pipeline (stale -> corrupt -> dropout), and
    expose the guard-readable outcome as attributes:

    Attributes:
        delivered_ok: Whether this epoch's report arrived at all.
        lost_streak: Consecutive epochs of lost reports.
        staleness_epochs: Age of the delivered report (0 = fresh; for
            lost epochs, the streak length).
    """

    def __init__(self, group, chaos: "ControlPlaneChaos"):
        super().__init__(group.name, chaos.history_depth)
        self._group = group
        self._chaos = chaos
        self._sim = chaos.sim
        self.channels = group.channels
        self.channel_names = tuple(ch.name for ch in self.channels)
        self.delivered_ok = True
        self.staleness_epochs = 0
        self._sampled_at: Optional[float] = None
        self._delivered: Tuple[float, float, int] = (0.0, 0.0, 0)

    # -- delegation ------------------------------------------------------

    @property
    def raw(self):
        """The wrapped (real) group — the guard's local-action path."""
        return self._group

    @property
    def current_rate(self) -> float:
        """The real group's configured rate (rate state is hardware
        state — chaos lies about telemetry, not about physics)."""
        return self._group.current_rate

    @property
    def is_off(self) -> bool:
        """The real group's power state (delegated, never faked)."""
        return self._group.is_off

    def __repr__(self) -> str:
        return f"ChaosGroup({self._group!r})"

    # -- telemetry (intercepted) -----------------------------------------

    def _sample(self, epoch_ns: float) -> None:
        """Read the real group and deliver this timestamp's report.

        The reads call it only when the clock has moved since the last
        sample, so the delta counters are consumed once per epoch.
        """
        chaos = self._chaos
        now = self._sim.now
        self._sampled_at = now
        group = self._group
        true = (group.utilization_since_last(epoch_ns),
                group.max_queue_fraction(),
                group.credit_stalls_since_last())
        self._delivered, status, self.staleness_epochs = chaos._telemetry(
            self, chaos.epoch_index(now), now, true)
        self.delivered_ok = status != "lost"

    def utilization_since_last(self, epoch_ns: float) -> float:
        """The busy fraction *as delivered* by the faulty pipeline."""
        if self._sampled_at != self._sim.now:
            self._sample(epoch_ns)
        return self._delivered[0]

    def max_queue_fraction(self) -> float:
        """The queue occupancy *as delivered* by the faulty pipeline."""
        if self._sampled_at != self._sim.now:
            self._sample(self._chaos.epoch_ns)
        return self._delivered[1]

    def credit_stalls_since_last(self) -> int:
        """The credit stalls *as delivered* by the faulty pipeline."""
        if self._sampled_at != self._sim.now:
            self._sample(self._chaos.epoch_ns)
        return self._delivered[2]

    # -- actuation (intercepted) -----------------------------------------

    def set_rate(self, rate_gbps: float, reactivation_ns: float) -> bool:
        """Route the rate command through the lossy actuation path."""
        return self._chaos.actuate(self, rate_gbps, reactivation_ns)


def _would_change(group, rate_gbps: float) -> bool:
    """What ``group.set_rate(rate_gbps, ...)`` would have returned.

    Used to fabricate a *plausible* success claim for a lost or delayed
    actuation: the controller's accounting (``reconfigurations``, the
    transition audit) tracks what it *believes* happened.
    """
    for ch in group.channels:
        if ch.is_off:
            continue
        effective = (ch._pending_rate if ch._pending_rate is not None
                     else ch.rate_gbps)
        if effective != rate_gbps:
            return True
    return False


class ControlPlaneChaos(ControlFaultInjector):
    """Applies a :class:`ControlFaultScenario` to a live controller.

    Construction wraps every entry of ``controller.groups`` in a
    :class:`ChaosGroup` and schedules the scenario's crashes as daemon
    events.  Must run *before* a failsafe guard wraps the same groups
    (the guard sits outside the chaos layer, like a switch-local
    watchdog observing the same lossy channel the controller does).
    A reading is a ``(utilization, queue_fraction, credit_stalls)``
    tuple; draws are indexed by the epoch.
    """

    prefix = "ctl"
    #: A lost report reads as idleness.
    lost_reading = (0.0, 0.0, 0)

    def __init__(self, controller, scenario: ControlFaultScenario,
                 decision_log: Optional[DecisionLog] = None):
        super().__init__(scenario, decision_log,
                         controller.config.effective_epoch_ns)
        self.controller = controller
        self.network = controller.network
        self.sim = self.network.sim
        controller.groups = [ChaosGroup(group, self)
                             for group in controller.groups]
        for crash in scenario.crashes:
            self.sim.schedule_at(crash.time_ns, self._crash, crash,
                                 daemon=True)

    def epoch_index(self, now: float) -> int:
        """The epoch ordinal at ``now`` (decisions land on multiples of
        the epoch, so rounding is exact up to float noise)."""
        return int(round(now / self.epoch_ns))

    @staticmethod
    def _corrupt(reading, fault: CorruptReading):
        if fault.kind == "stuck":
            return (fault.value, fault.value, 0)
        return (reading[0] * fault.factor, reading[1] * fault.factor,
                reading[2])

    def _audit(self, now: float, cgroup: Optional[ChaosGroup],
               reason: str, new_rate: Optional[float] = None) -> None:
        """Telemetry records carry the group's channels and its
        unchanged rate; command records the commanded one."""
        if cgroup is None:
            super()._audit(now, None, reason)
        elif self.decision_log is not None:
            rate = cgroup.raw.current_rate
            self.decision_log.record(
                now, "chaos", cgroup.name, cgroup.channel_names, rate,
                rate if new_rate is None else new_rate, reason, False)

    # -- actuation -------------------------------------------------------

    def actuate(self, cgroup: ChaosGroup, rate_gbps: float,
                reactivation_ns: float) -> bool:
        """One rate command through the faulty pipeline."""
        now = self.sim.now
        fate, late_ns = self._actuation_fate(
            cgroup, self.epoch_index(now), now, rate_gbps)
        group = cgroup.raw
        if fate == "ok":
            return group.set_rate(rate_gbps, reactivation_ns)
        if fate == "delayed":
            self.sim.schedule(late_ns, self._apply_late, group, rate_gbps,
                              reactivation_ns, daemon=True)
        return _would_change(group, rate_gbps)

    def _apply_late(self, group, rate_gbps: float,
                    reactivation_ns: float) -> None:
        if not group.is_off:
            group.set_rate(rate_gbps, reactivation_ns)

    # -- controller lifetime ---------------------------------------------

    def _crash(self, crash: ControllerCrash) -> None:
        controller = self.controller
        if controller._stopped:
            return
        controller.stop()
        self.note_crash(self.sim.now)
        if crash.restart_after_epochs is not None:
            self.sim.schedule(crash.restart_after_epochs * self.epoch_ns,
                              self._restart, daemon=True)

    def _restart(self) -> None:
        self.controller.cold_restart()
        self.note_restart(self.sim.now)


# ---------------------------------------------------------------------------
# Named-scenario registry (mirrors repro.faults.scenario)
# ---------------------------------------------------------------------------

_CONTROL_SCENARIOS: Dict[str, Callable] = {}


def register_control_scenario(name: str, builder: Callable) -> None:
    """Register ``builder(spec) -> ControlFaultScenario`` under a name
    usable as ``SimulationSpec.control_faults``."""
    if name in _CONTROL_SCENARIOS:
        raise ValueError(
            f"control-fault scenario {name!r} is already registered")
    _CONTROL_SCENARIOS[name] = builder


def registered_control_scenarios() -> List[str]:
    """All registered control-fault scenario names, sorted."""
    return sorted(_CONTROL_SCENARIOS)


def build_control_scenario(name: str, spec) -> ControlFaultScenario:
    """Build the named scenario for one spec (seeded by
    ``spec.fault_seed``, windowed by ``spec.duration_ns``)."""
    try:
        builder = _CONTROL_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown control-fault scenario {name!r}; registered: "
            f"{', '.join(registered_control_scenarios()) or '(none)'}"
        ) from None
    return builder(spec)


# -- built-in scenarios ------------------------------------------------------

def _ctl_dropout(spec) -> ControlFaultScenario:
    d = spec.duration_ns
    return ControlFaultScenario(
        name="ctl_dropout", seed=spec.fault_seed,
        dropout=TelemetryDropout(fraction=0.6, probability=0.9,
                                 start_ns=0.2 * d, end_ns=0.8 * d))


def _ctl_stale(spec) -> ControlFaultScenario:
    d = spec.duration_ns
    return ControlFaultScenario(
        name="ctl_stale", seed=spec.fault_seed,
        stale=StaleTelemetry(epochs=5, fraction=0.5, start_ns=0.2 * d))


def _ctl_corrupt(spec) -> ControlFaultScenario:
    d = spec.duration_ns
    return ControlFaultScenario(
        name="ctl_corrupt", seed=spec.fault_seed,
        corrupt=CorruptReading(kind="stuck", value=1.0, fraction=0.3,
                               start_ns=0.2 * d))


def _ctl_lossy(spec) -> ControlFaultScenario:
    d = spec.duration_ns
    return ControlFaultScenario(
        name="ctl_lossy", seed=spec.fault_seed,
        loss=DecisionLoss(probability=0.5, start_ns=0.1 * d),
        delay=DecisionDelay(epochs=2, fraction=0.5, probability=0.5,
                            start_ns=0.1 * d))


def _ctl_crash(spec) -> ControlFaultScenario:
    d = spec.duration_ns
    return ControlFaultScenario(
        name="ctl_crash", seed=spec.fault_seed,
        crashes=(ControllerCrash(time_ns=0.3 * d,
                                 restart_after_epochs=10),))


def _ctl_chaos(level: str, intensity: float) -> Callable:
    """Composite chaos at a given intensity: dropout + command loss +
    (at mid/high) a crash-with-cold-restart.

    Deliberately no :class:`CorruptReading`: a corrupt report is
    indistinguishable from a true one at the transport layer, so no
    transport-level failsafe can tell them apart — the cross-check for
    lying sensors lives in the fault-aware controller's queue-fraction
    comparison (PR 4), not here.
    """
    def build(spec) -> ControlFaultScenario:
        d = spec.duration_ns
        crashes = ()
        if intensity >= 0.5:
            crashes = (ControllerCrash(time_ns=0.45 * d,
                                       restart_after_epochs=8),)
        return ControlFaultScenario(
            name=f"ctl_chaos_{level}", seed=spec.fault_seed,
            dropout=TelemetryDropout(
                fraction=min(1.0, 0.35 + 0.5 * intensity),
                probability=0.9, start_ns=0.15 * d, end_ns=0.85 * d),
            loss=DecisionLoss(probability=0.4 * intensity,
                              start_ns=0.1 * d),
            stale=StaleTelemetry(epochs=4,
                                 fraction=min(1.0, 0.3 * intensity),
                                 start_ns=0.1 * d),
            crashes=crashes)
    return build


register_control_scenario("ctl_dropout", _ctl_dropout)
register_control_scenario("ctl_stale", _ctl_stale)
register_control_scenario("ctl_corrupt", _ctl_corrupt)
register_control_scenario("ctl_lossy", _ctl_lossy)
register_control_scenario("ctl_crash", _ctl_crash)
register_control_scenario("ctl_chaos_low", _ctl_chaos("low", 0.4))
register_control_scenario("ctl_chaos_mid", _ctl_chaos("mid", 0.7))
register_control_scenario("ctl_chaos_high", _ctl_chaos("high", 1.0))

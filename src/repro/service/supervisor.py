"""Supervisor: heartbeat watchdog + cold-restart recovery.

The decision loop is one asyncio task, and tasks die: the chaos DSL
kills it mid-await, a bug could hang it on a single record.  The
supervisor is the independent task that notices and repairs:

- **deadman detection** — every ``supervisor_check_epochs`` it
  compares the loop's heartbeat against the deadman window.  A dead
  task is restarted immediately; a live-but-silent one (heartbeat
  stale *while input is queued* — an idle loop parked on an empty
  stream is healthy) is killed and restarted.  Each restart is
  audited as ``service_restart``.
- **cold-restart recovery** — the replacement loop starts from the
  latest checkpoint (or cold, if none).  A checkpoint can predate the
  crash by up to an epoch, so the supervisor reconciles against the
  :class:`PowerJournal` — a DecisionLog tap that survives loop
  incarnations and remembers, per group, the last power-affecting
  decision.  Any group the journal says was gated dark but the
  restored state doesn't know about (or knows and would leave dark
  with stale eyes) is released and woken at its last-good rate —
  the :meth:`repro.core.failsafe.FailsafeGuard.release_gate`
  semantics applied across a process boundary, audited as
  ``service_recovered``.

The journal deliberately tracks *sent* intents, not acknowledged
outcomes: a gate-off that was sent but lost still marks the group
suspect, and the recovery wake is idempotent on the plant either way.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.decisions import (
    GATED_OFF,
    GATED_WAKE,
    SERVICE_RECOVERED,
    SERVICE_RESTART,
    SERVICE_SAFE_FLOOR,
    DecisionLog,
)
from repro.service.clock import VirtualClock

#: Pseudo group stamped on supervisor lifecycle records (the chaos
#: layer's controller-lifetime idiom).
SUPERVISOR_GROUP = "__supervisor__"


class PowerJournal:
    """DecisionLog tap remembering each group's last power intent.

    Registered once at service wiring, so it observes every loop
    incarnation — which is exactly what makes it usable to re-derive
    gated-group state after the loop's own memory is gone.
    """

    #: Reasons that mark a group dark / lit when they carry a send.
    _OFF_REASONS = frozenset({GATED_OFF})
    _ON_REASONS = frozenset({GATED_WAKE, SERVICE_SAFE_FLOOR,
                             SERVICE_RECOVERED})

    def __init__(self):
        #: group -> ("off" | "on", time_ns of the deciding record).
        self.last_power: Dict[str, Tuple[str, float]] = {}

    def observe(self, reason: str, group: str, time_ns: float,
                changed: bool) -> None:
        """The tap callable (append to ``DecisionLog.taps``)."""
        if reason in self._OFF_REASONS:
            self.last_power[group] = ("off", time_ns)
        elif reason in self._ON_REASONS or changed:
            self.last_power[group] = ("on", time_ns)

    def dark_groups(self):
        """Groups whose last power intent was a gate-off, sorted."""
        return sorted(name for name, (state, _)
                      in self.last_power.items() if state == "off")


class Supervisor:
    """Watches one service's decision loop and restarts it on death.

    Args:
        clock: The service's virtual clock.
        service: The owning
            :class:`repro.service.service.ControlPlaneService`
            (provides the loop task, checkpoint load, and respawn).
        decision_log: Audit log for restart/recovery records.
        power_journal: The cross-incarnation gating memory.
    """

    def __init__(self, clock: VirtualClock, service,
                 decision_log: DecisionLog,
                 power_journal: PowerJournal):
        self.clock = clock
        self.service = service
        self.log = decision_log
        self.power_journal = power_journal
        self.restarts = 0
        self.recoveries = 0

    async def run(self) -> None:
        """The watchdog task."""
        config = self.service.config
        check_ns = config.supervisor_check_epochs * config.epoch_ns
        deadman_ns = config.deadman_epochs * config.epoch_ns
        while True:
            await self.clock.sleep(check_ns)
            loop = self.service.loop
            task = self.service.loop_task
            if loop is None or task is None:
                continue
            now = self.clock.now_ns
            dead = task.done()
            hung = (not dead and len(self.service.stream) > 0
                    and now - loop.heartbeat_ns > deadman_ns)
            if not dead and not hung:
                continue
            if hung:
                task.cancel()
            self._restart(now)

    def _restart(self, now: float) -> None:
        self.restarts += 1
        state = self.service.load_checkpoint_state()
        loop = self.service.spawn_decision_loop(state)
        self.log.record(
            time_ns=now, controller="supervisor",
            group=SUPERVISOR_GROUP, channels=(), old_rate=None,
            new_rate=None, reason=SERVICE_RESTART, changed=False)
        self._recover(loop, now)

    def _recover(self, loop, now: float) -> None:
        """Wake every journal-dark group the restored state would
        otherwise leave stranded."""
        for name in self.power_journal.dark_groups():
            g = loop.state.groups.get(name)
            if g is None:
                continue
            self.recoveries += 1
            loop.release_gate(name)
            self.log.record(
                time_ns=now, controller="supervisor", group=name,
                channels=(), old_rate=None,
                new_rate=max(loop.config.floor_rate_gbps,
                             g.last_good_rate),
                reason=SERVICE_RECOVERED, changed=False)
            loop.recover_group(name, now)

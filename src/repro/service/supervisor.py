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
  power journal — a DecisionLog tap that survives loop incarnations
  and remembers, per group, the last power-affecting decision.  Any
  group the journal says was gated dark but the restored state
  doesn't know about (or knows and would leave dark with stale eyes)
  is released and woken at its last-good rate — the semantics of
  :meth:`repro.core.failsafe.FailsafeGuard._release_gate` (which calls
  the wrapped controller's ``release_gate``) applied across a process
  boundary, audited as
  ``service_recovered``.

The journal is the failsafe guard's (:mod:`repro.core.safety`); the
service wires it with its own reason sets, capped at ``journal_cap``
(:class:`repro.service.service.ControlPlaneService`).  It tracks
*sent* intents, not acknowledged outcomes: a gate-off that was sent
but lost still marks the group suspect, and the recovery wake is
idempotent on the plant either way.
"""

from __future__ import annotations

from repro.obs.decisions import SERVICE_RESTART, DecisionLog
from repro.service.clock import VirtualClock

#: Pseudo group stamped on supervisor lifecycle records (the chaos
#: layer's controller-lifetime idiom).
SUPERVISOR_GROUP = "__supervisor__"


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
                 decision_log: DecisionLog, power_journal):
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
            if name in loop.state.groups:
                self.recoveries += 1
                loop.recover_group(name, now)

"""Decision-out transport: rate commands over a lossy path.

In the simulator, ``group.set_rate`` is a function call that cannot
fail.  The service's actuation path is a network hop: commands are
serialized as :class:`RateCommand` wire records, take time to arrive,
can be silently dropped or arbitrarily delayed (the
:class:`repro.faults.control_faults.DecisionLoss` /
:class:`~repro.faults.control_faults.DecisionDelay` DSL, pointed here
instead of at the simulator's group proxies), and are only
acknowledged once the plant actually applied them.

The transport is deliberately dumb — no retries, no ordering repair.
Reliability is the *controller's* job (the intent journal with
timeout + seeded exponential backoff); the transport just tells the
truth about what was delivered, and the chaos injector that decides
each fate audits every loss and delay into the DecisionLog under the
existing ``control_fault_actuation_*`` reasons.  Deliveries are
idempotent end-to-end because the plant treats a re-applied state as
a no-op, so a retry racing a delayed original is harmless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set

from repro.service.clock import VirtualClock
from repro.service.plant import FabricPlant

if TYPE_CHECKING:
    import asyncio


@dataclass(frozen=True)
class RateCommand:
    """One rate actuation on the wire.

    Attributes:
        seq: Transport-unique sequence number (re-sends get fresh
            ones, so every attempt draws independent loss/delay fates).
        group: Target control group.
        rate_gbps: Commanded rate; ``0.0`` powers the group off.
        epoch: Epoch the deciding pass covered.
        time_ns: Virtual send time.
    """

    seq: int
    group: str
    rate_gbps: float
    epoch: int
    time_ns: float


class ActuationTransport:
    """Sends :class:`RateCommand` records to the plant, faultily.

    Args:
        clock: The service's virtual clock.
        plant: The fabric the delivered commands apply to.
        chaos: Optional :class:`repro.service.faults.ServiceChaos`;
            consulted per command for a loss/delay fate.
        base_delay_ns: Fault-free one-way delivery latency.
        ack_delay_ns: Plant-to-controller acknowledgement latency.
        on_ack: Callable ``(command, changed)`` invoked when the ack
            arrives (the controller clears its journal entry here).
    """

    def __init__(self, clock: VirtualClock, plant: FabricPlant,
                 chaos=None, base_delay_ns: float = 2e6,
                 ack_delay_ns: float = 2e6,
                 on_ack: Optional[Callable[[RateCommand, bool], None]]
                 = None):
        self.clock = clock
        self.plant = plant
        self.chaos = chaos
        self.base_delay_ns = base_delay_ns
        self.ack_delay_ns = ack_delay_ns
        self.on_ack = on_ack
        self.sent = 0
        self.lost = 0
        self.delayed = 0
        self.delivered = 0
        self.acked = 0
        self._tasks: Set[asyncio.Task] = set()

    def send(self, command: RateCommand) -> None:
        """Fire one command into the transport (never blocks)."""
        self.sent += 1
        fate, extra_ns = ("ok", 0.0)
        if self.chaos is not None:
            fate, extra_ns = self.chaos.actuation_fate(command)
        if fate == "lost":
            self.lost += 1
            self.clock.note()
            return
        if fate == "delayed":
            self.delayed += 1
        task = self.clock.create_task(
            self._deliver(command, self.base_delay_ns + extra_ns))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        self.clock.note()

    async def _deliver(self, command: RateCommand,
                       delay_ns: float) -> None:
        await self.clock.sleep(delay_ns)
        changed = self.plant.apply(command.group, command.rate_gbps,
                                   self.clock.now_ns)
        self.delivered += 1
        self.clock.note()
        await self.clock.sleep(self.ack_delay_ns)
        self.acked += 1
        if self.on_ack is not None:
            self.on_ack(command, changed)
        self.clock.note()

    def digest(self) -> Dict[str, object]:
        """JSON-safe transport accounting for the service summary."""
        return {
            "sent": self.sent,
            "lost": self.lost,
            "delayed": self.delayed,
            "delivered": self.delivered,
            "acked": self.acked,
        }

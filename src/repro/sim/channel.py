"""Unidirectional plesiochronous channels.

Each channel models one direction of a link (Section 3.3.1 argues the two
directions should be independently tunable, so they are independent
objects here).  A channel owns:

- an **output queue** on the upstream side (the buffer whose depth the
  adaptive routing inspects),
- a **credit counter** mirroring the free space in the downstream input
  buffer (credit-based, loss-less flow control),
- a **serializer** running at the configured data rate, and
- the **reconfiguration machinery**: changing rate stalls the channel for
  a reactivation latency while the receiving CDR re-locks (Section 3.1);
  traffic queued behind the stall is what adaptive routing steers around.

The channel also keeps the accounting the paper's figures are computed
from: busy time (utilization), time spent at each rate (Figure 7) and,
via :class:`repro.sim.stats.ChannelStats`, the energy integral under any
channel power model (Figure 8).
"""

from __future__ import annotations

import collections
import enum
from typing import Deque, Optional, TYPE_CHECKING

from repro.power.link_rates import RateLadder, DEFAULT_RATE_LADDER
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.stats import ChannelStats
from repro.units import serialization_ns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.node import Node


class ChannelState(enum.Enum):
    """Operating state of a channel."""

    ACTIVE = "active"
    REACTIVATING = "reactivating"
    #: Powered off by the dynamic-topology controller (Section 5.1).
    OFF = "off"


_ACTIVE = ChannelState.ACTIVE


class Channel:
    """One unidirectional channel of a link.

    Args:
        sim: The event engine.
        name: Stable identifier, e.g. ``"sw3->sw7"`` (used in stats).
        dst: Downstream node; must expose ``receive(packet, channel)``.
        ladder: Configurable rate ladder.
        rate_gbps: Initial configured rate (must be on the ladder).
        propagation_ns: Wire flight time, also applied to returning credits.
        queue_capacity_bytes: Output-queue capacity on the upstream side.
        credit_bytes: Downstream input-buffer size this channel may occupy.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dst: "Node",
        ladder: RateLadder = DEFAULT_RATE_LADDER,
        rate_gbps: Optional[float] = None,
        propagation_ns: float = 50.0,
        queue_capacity_bytes: int = 65536,
        credit_bytes: int = 32768,
        medium=None,
    ):
        self.sim = sim
        self.name = name
        self.dst = dst
        self.ladder = ladder
        self._rate = ladder.max_rate if rate_gbps is None else float(rate_gbps)
        if self._rate not in ladder:
            raise ValueError(f"rate {self._rate} not on ladder {ladder}")
        self.propagation_ns = propagation_ns
        self.queue_capacity_bytes = queue_capacity_bytes
        self._queue: Deque[Packet] = collections.deque()
        self._queue_bytes = 0
        self._credits = credit_bytes
        self.credit_limit = credit_bytes

        self.state = ChannelState.ACTIVE
        self._sending = False
        self._tx_start = 0.0
        self._pending_rate: Optional[float] = None
        self._pending_reactivation_ns = 0.0
        # Optional richer operating-point label (e.g. a LaneConfig) used
        # as the stats accounting key instead of the scalar rate.
        self._mode = None
        self._pending_mode = None
        #: Set by the dynamic-topology controller while a channel is being
        #: derouted ahead of power-off: no new traffic is accepted, the
        #: queue drains, then the channel can be powered down.
        self.draining = False
        # Invalidates in-flight reactivation-complete events whenever the
        # channel is reconfigured again or powered off underneath them.
        self._react_token = 0

        #: The upstream node; set by the owner so the channel can notify it
        #: when output-queue space frees up.
        self.src: Optional["Node"] = None

        #: Optional :class:`repro.obs.instrument.FabricProbe`; hook sites
        #: cost one ``is None`` check each when no probe is attached.
        self.probe = None

        self.stats = ChannelStats(name=name, initial_rate=self._rate,
                                  start_time=sim.now, medium=medium)

    # ------------------------------------------------------------------
    # Introspection used by routing and the controller
    # ------------------------------------------------------------------

    @property
    def rate_gbps(self) -> float:
        """Currently configured data rate (the *new* rate during
        reactivation, since power is already committed to it)."""
        return self._rate

    @property
    def queue_bytes(self) -> int:
        """Output-queue occupancy — the adaptive-routing congestion signal."""
        return self._queue_bytes

    @property
    def queue_packets(self) -> int:
        """Packets in the output queue."""
        return len(self._queue)

    @property
    def credits(self) -> int:
        """Downstream input-buffer bytes currently available."""
        return self._credits

    @property
    def is_off(self) -> bool:
        """True when the channel is powered off."""
        return self.state is ChannelState.OFF

    @property
    def usable(self) -> bool:
        """May routing offer this channel as a candidate?"""
        return self.state is not ChannelState.OFF and not self.draining

    @property
    def drained(self) -> bool:
        """True when nothing is queued or in flight on the serializer."""
        return not self._sending and not self._queue

    def busy_ns(self) -> float:
        """Cumulative serializing time, including the current in-flight
        transmission up to now — the utilization numerator."""
        busy = self.stats.busy_ns
        if self._sending:
            busy += self.sim.now - self._tx_start
        return busy

    # ------------------------------------------------------------------
    # Sending-side API (used by switches and host NICs)
    # ------------------------------------------------------------------

    def can_enqueue(self, size_bytes: int) -> bool:
        """True if the output queue has room for ``size_bytes`` and the
        channel is not powered off."""
        if not self.usable:
            return False
        return self._queue_bytes + size_bytes <= self.queue_capacity_bytes

    def enqueue(self, packet: Packet, force: bool = False) -> None:
        """Append a packet to the output queue.

        ``force`` bypasses the capacity check; the switch's escape valve
        uses it to guarantee forward progress (emulating an escape virtual
        channel).  Raises RuntimeError on a normal enqueue without space.
        """
        if not force and not self.can_enqueue(packet.size_bytes):
            raise RuntimeError(f"output queue of {self.name} is full")
        if self.state is ChannelState.OFF:
            raise RuntimeError(f"channel {self.name} is powered off")
        self._queue.append(packet)
        self._queue_bytes += packet.size_bytes
        if self.probe is not None:
            self.probe.on_enqueue(self)
        if not self._sending:
            self._try_send()

    # ------------------------------------------------------------------
    # Rate control (used by the epoch controller)
    # ------------------------------------------------------------------

    def set_rate(self, rate_gbps: float, reactivation_ns: float,
                 mode=None) -> bool:
        """Reconfigure the channel's data rate.

        Returns True if a reconfiguration was initiated.  A no-op when
        the operating point is unchanged (links are not re-locked
        needlessly).  The stall begins once any in-flight packet
        finishes serializing, and lasts ``reactivation_ns``.

        Args:
            rate_gbps: New aggregate data rate (must be on the ladder).
            reactivation_ns: Stall duration for this transition.
            mode: Optional richer operating-point label (e.g. a
                :class:`~repro.power.lanes.LaneConfig`) recorded as the
                power-accounting key instead of the scalar rate — two
                modes with equal aggregate rate can then be priced
                differently.
        """
        rate = float(rate_gbps)
        if rate not in self.ladder:
            raise ValueError(f"rate {rate} not on ladder {self.ladder}")
        if self.state is ChannelState.OFF:
            raise RuntimeError(f"cannot set rate of powered-off {self.name}")
        if self._pending_rate is not None:
            current = (self._pending_rate, self._pending_mode)
        else:
            current = (self._rate, self._mode)
        if (rate, mode) == current:
            return False
        self._pending_rate = rate
        self._pending_mode = mode
        self._pending_reactivation_ns = reactivation_ns
        if not self._sending and self.state is ChannelState.ACTIVE:
            self._begin_reactivation()
        return True

    def power_off(self) -> None:
        """Power the channel down entirely (dynamic topologies, §5.1).

        Only legal when idle and drained; the dynamic-topology controller
        deroutes traffic first.
        """
        if not self.drained:
            raise RuntimeError(f"cannot power off {self.name} with traffic queued")
        if self.probe is not None:
            self.probe.on_rate_change(self, self._rate, None)
        self.stats.account_rate_change(self.sim.now, None)
        self.state = ChannelState.OFF
        self.draining = False
        self._react_token += 1

    def power_on(self, reactivation_ns: float,
                 rate_gbps: Optional[float] = None) -> None:
        """Bring a powered-off channel back up, paying a reactivation."""
        if self.state is not ChannelState.OFF:
            raise RuntimeError(f"channel {self.name} is not off")
        if rate_gbps is not None:
            if float(rate_gbps) not in self.ladder:
                raise ValueError(f"rate {rate_gbps} not on ladder")
            self._rate = float(rate_gbps)
        if self.probe is not None:
            self.probe.on_rate_change(self, None, self._rate)
        self.stats.account_rate_change(self.sim.now, self._rate)
        self.state = ChannelState.REACTIVATING
        self.draining = False
        self.stats.reactivations += 1
        self.stats.reactivation_ns_total += reactivation_ns
        self._react_token += 1
        self.sim.schedule(reactivation_ns, self._on_reactivated,
                          self._react_token)

    # ------------------------------------------------------------------
    # Credit flow (called by the downstream node)
    # ------------------------------------------------------------------

    def release_credits(self, size_bytes: int) -> None:
        """Downstream freed input-buffer space; the credit flies back over
        the reverse wire before it can enable a new transmission."""
        sim = self.sim
        sim.schedule_at(sim._now + self.propagation_ns, self._on_credits,
                        size_bytes)

    def _on_credits(self, size_bytes: int) -> None:
        self._credits += size_bytes
        if self._credits > self.credit_limit:
            raise RuntimeError(
                f"credit overflow on {self.name}: {self._credits} > "
                f"{self.credit_limit}"
            )
        self._try_send()

    # ------------------------------------------------------------------
    # Serializer internals
    # ------------------------------------------------------------------

    # The hot callers below schedule with ``sim.schedule_at(sim._now +
    # delay, ...)``: the very sum ``Simulator.schedule`` computes, minus
    # its call frame.

    def _try_send(self) -> None:
        if self._sending or self.state is not _ACTIVE:
            return
        queue = self._queue
        if not queue:
            return
        head = queue[0]
        size = head.size_bytes
        if self._credits < size:
            self.stats.credit_stalls += 1
            return
        queue.popleft()
        self._queue_bytes -= size
        self._credits -= size
        self._sending = True
        sim = self.sim
        now = self._tx_start = sim._now
        sim.schedule_at(now + serialization_ns(size, self._rate),
                        self._on_tx_done, head)

    def _on_tx_done(self, packet: Packet) -> None:
        self._sending = False
        sim = self.sim
        now = sim._now
        stats = self.stats
        stats.busy_ns += now - self._tx_start
        stats.bytes_sent += packet.size_bytes
        stats.packets_sent += 1
        sim.schedule_at(now + self.propagation_ns, self.dst.receive, packet,
                        self)
        if self.src is not None:
            self.src.on_output_space(self)
        if self._pending_rate is not None:
            self._begin_reactivation()
        else:
            self._try_send()

    def _begin_reactivation(self) -> None:
        new_rate = self._pending_rate
        new_mode = self._pending_mode
        reactivation_ns = self._pending_reactivation_ns
        self._pending_rate = None
        self._pending_mode = None
        self._pending_reactivation_ns = 0.0
        if self.probe is not None:
            self.probe.on_rate_change(self, self._rate, new_rate)
        # Power is accounted at the new rate from the start of the stall:
        # the SerDes is already locked to the new configuration envelope.
        self.stats.account_rate_change(
            self.sim.now, new_mode if new_mode is not None else new_rate)
        self._rate = new_rate
        self._mode = new_mode
        self.stats.reactivations += 1
        self.stats.reactivation_ns_total += reactivation_ns
        self._react_token += 1
        if reactivation_ns <= 0:
            self.state = ChannelState.ACTIVE
            self._try_send()
            return
        self.state = ChannelState.REACTIVATING
        self.sim.schedule(reactivation_ns, self._on_reactivated,
                          self._react_token)

    def _on_reactivated(self, token: int) -> None:
        if token != self._react_token:
            # Stale completion: the channel was reconfigured again or
            # powered off while this re-lock was in flight.
            return
        if self._pending_rate is not None:
            # A further reconfiguration arrived while re-locking.
            self._begin_reactivation()
            return
        self.state = ChannelState.ACTIVE
        self._try_send()

    def __repr__(self) -> str:
        return (f"Channel({self.name} @ {self._rate}Gb/s {self.state.value}, "
                f"q={self._queue_bytes}B, credits={self._credits}B)")

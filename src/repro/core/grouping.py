"""Control groups: which channels are tuned together.

Section 3.3.1: the routing algorithm sees each unidirectional channel as
an independent resource, but the physical layer of today's chips ties a
bidirectional link pair together — "the link pair must be reconfigured
together to match the requirements of the channel with the highest
load".  The paper proposes (and we evaluate) *independent* control of
each direction, which nearly halves the time spent at fast rates because
channel load is asymmetric (Figure 7).

A :class:`ChannelGroup` is the unit the epoch controller makes decisions
for; its utilization is the max across member channels (the pair must
satisfy its hungriest direction).

The reads run once per group per epoch, so they read channel state
(``state``, ``_queue_bytes``) directly instead of through the
channel's properties, and take maxima with explicit compare loops,
which keep ``max()``'s first-maximum result.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, TYPE_CHECKING

from repro.sim.channel import Channel, ChannelState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import FbflyNetwork

_OFF = ChannelState.OFF


class ChannelGroup:
    """A set of channels reconfigured as one unit."""

    __slots__ = ("name", "channels", "channel_names", "_last_busy_ns",
                 "_last_stalls")

    def __init__(self, name: str, channels: Sequence[Channel]):
        if not channels:
            raise ValueError("a control group needs at least one channel")
        self.name = name
        self.channels: Tuple[Channel, ...] = tuple(channels)
        #: Member names, as stamped on every audit record.
        self.channel_names: Tuple[str, ...] = tuple(
            ch.name for ch in self.channels)
        self._last_busy_ns: Dict[Channel, float] = {
            ch: ch.busy_ns() for ch in self.channels
        }
        self._last_stalls: Dict[Channel, int] = {
            ch: ch.stats.credit_stalls for ch in self.channels
        }

    @property
    def current_rate(self) -> float:
        """The group's configured rate (members are kept in lockstep)."""
        return self.channels[0]._rate

    @property
    def is_off(self) -> bool:
        """True when any member is powered off (skip rate decisions)."""
        for ch in self.channels:
            if ch.state is _OFF:
                return True
        return False

    def utilization_since_last(self, epoch_ns: float) -> float:
        """Max busy fraction across members since the previous call.

        The max (not mean) is what makes paired control conservative: one
        hot direction keeps both directions fast.
        """
        if epoch_ns <= 0:
            raise ValueError(f"epoch must be positive, got {epoch_ns}")
        last = self._last_busy_ns
        worst = 0.0
        for ch in self.channels:
            busy = ch.busy_ns()
            fraction = (busy - last[ch]) / epoch_ns
            last[ch] = busy
            if fraction > worst:
                worst = fraction
        return worst

    def max_queue_fraction(self) -> float:
        """Worst output-queue occupancy across members, instantaneous."""
        worst = -1.0    # below any occupancy: the first member sets it
        for ch in self.channels:
            fraction = ch._queue_bytes / ch.queue_capacity_bytes
            if fraction > worst:
                worst = fraction
        return worst

    def credit_stalls_since_last(self) -> int:
        """Credit-blocked transmission attempts since the previous call."""
        last = self._last_stalls
        total = 0
        for ch in self.channels:
            stalls = ch.stats.credit_stalls
            total += stalls - last[ch]
            last[ch] = stalls
        return total

    def set_rate(self, rate_gbps: float, reactivation_ns: float) -> bool:
        """Retune every member; returns True if any reconfigured."""
        changed = False
        for ch in self.channels:
            if ch.state is not _OFF:
                changed |= ch.set_rate(rate_gbps, reactivation_ns)
        return changed

    def __repr__(self) -> str:
        return f"ChannelGroup({self.name}, {len(self.channels)} channels)"


def independent_groups(network: "FbflyNetwork") -> List[ChannelGroup]:
    """One group per unidirectional channel (the paper's proposal)."""
    return [
        ChannelGroup(ch.name, [ch]) for ch in network.tunable_channels()
    ]


def paired_groups(network: "FbflyNetwork") -> List[ChannelGroup]:
    """One group per bidirectional link pair (today's chips)."""
    return [
        ChannelGroup(f"{fwd.name}|{rev.name}", [fwd, rev])
        for fwd, rev in network.link_pairs()
    ]

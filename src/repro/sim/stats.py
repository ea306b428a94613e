"""Statistics: the raw accounting every figure is computed from.

Two layers:

- :class:`ChannelStats` — per-channel time-at-rate, busy time, byte and
  reactivation counters.  Time-at-rate is the key record: given any
  channel power model it yields the energy integral *post hoc*, so a
  single simulation produces both the measured-channel (Figure 8a) and
  ideal-channel (Figure 8b) power numbers.
- :class:`NetworkStats` — network-wide aggregation: latency
  distributions, delivered bytes, power fractions relative to the
  always-full-rate baseline, and the per-speed time fractions of
  Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.power.channel_models import ChannelPowerModel
from repro.sums import left_sum


@dataclass
class ChannelStats:
    """Accounting for one unidirectional channel.

    ``time_at_rate`` maps a configured rate (Gb/s) to nanoseconds spent
    configured at that rate; the key ``None`` accumulates powered-off
    time.  Reactivation stalls are charged to the *new* rate (the SerDes
    is already locked to its power envelope during CDR re-lock).
    """

    name: str
    initial_rate: float
    start_time: float = 0.0
    busy_ns: float = 0.0
    bytes_sent: int = 0
    packets_sent: int = 0
    reactivations: int = 0
    reactivation_ns_total: float = 0.0
    credit_stalls: int = 0
    #: Physical medium tag; models exposing ``power_for(rate, medium)``
    #: price this channel's time on the medium's own curve.  ``None``
    #: means medium-agnostic (priced by ``model.power`` alone).
    medium: Optional[object] = None
    time_at_rate: Dict[Optional[float], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._current_rate: Optional[float] = self.initial_rate
        self._last_change = self.start_time
        self._finalized_at: Optional[float] = None

    @property
    def current_rate(self) -> Optional[float]:
        """The accounting key currently open (rate or mode)."""
        return self._current_rate

    def account_rate_change(self, now: float, new_rate: Optional[float]) -> None:
        """Close the accounting window at the old rate and open a new one."""
        elapsed = now - self._last_change
        if elapsed < 0:
            raise ValueError(f"time went backwards on {self.name}")
        self.time_at_rate[self._current_rate] = (
            self.time_at_rate.get(self._current_rate, 0.0) + elapsed
        )
        self._current_rate = new_rate
        self._last_change = now

    def finalize(self, now: float) -> None:
        """Close the final window.  Idempotent for a fixed ``now``."""
        if self._finalized_at == now:
            return
        self.account_rate_change(now, self._current_rate)
        self._finalized_at = now

    def energy(self, model: ChannelPowerModel, off_power: float = 0.0) -> float:
        """Normalized-power x time integral (units: ns at normalized W).

        When the channel carries a medium tag and the model exposes
        ``power_for(rate, medium)``, that per-medium pricing is used.
        """
        price_for = getattr(model, "power_for", None)
        use_medium = self.medium is not None and price_for is not None
        total = 0.0
        for rate, t in self.time_at_rate.items():
            if rate is None:
                total += t * off_power
            elif use_medium:
                total += t * price_for(rate, self.medium)
            else:
                total += t * model.power(rate)
        return total

    def utilization(self, duration_ns: float) -> float:
        """Busy fraction over ``duration_ns``."""
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        return self.busy_ns / duration_ns


class _RunningStats:
    """Streaming mean/max plus a retained sample list for percentiles."""

    __slots__ = ("count", "total", "maximum", "samples", "keep_samples")

    def __init__(self, keep_samples: bool = True):
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0
        self.samples: List[float] = []
        self.keep_samples = keep_samples

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value
        if self.keep_samples:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolation percentile over retained samples."""
        if not self.samples:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = p / 100.0 * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class NetworkStats:
    """Network-wide aggregation over a set of registered channels."""

    def __init__(self, start_time: float = 0.0):
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.channels: List[ChannelStats] = []
        self.packet_latency = _RunningStats(keep_samples=False)
        self.message_latency = _RunningStats(keep_samples=True)
        self.messages_injected = 0
        self.messages_delivered = 0
        self.bytes_injected = 0
        self.bytes_delivered = 0
        self.escapes = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0
        self.messages_dropped = 0
        self._dropped_message_ids: set = set()

    # -- recording -----------------------------------------------------

    def register_channel(self, stats: ChannelStats) -> None:
        """Track a channel's stats in this aggregate."""
        self.channels.append(stats)

    def record_injection(self, size_bytes: int) -> None:
        """Count one injected message of ``size_bytes``."""
        self.messages_injected += 1
        self.bytes_injected += size_bytes

    def record_packet_delivery(self, latency_ns: float, size_bytes: int) -> None:
        """Record one delivered packet's latency/size."""
        self.packet_latency.add(latency_ns)
        self.bytes_delivered += size_bytes

    def record_message_delivery(self, latency_ns: float) -> None:
        """Record one completed message's latency."""
        self.messages_delivered += 1
        self.message_latency.add(latency_ns)

    def record_drop(self, packet) -> None:
        """Record one dropped packet (graceful fault degradation).

        The owning message is counted as dropped exactly once: a message
        missing any packet never completes, so byte- and message-level
        conservation becomes ``delivered + dropped == injected``.
        """
        self.packets_dropped += 1
        self.bytes_dropped += packet.size_bytes
        message_id = packet.message.id
        if message_id not in self._dropped_message_ids:
            self._dropped_message_ids.add(message_id)
            self.messages_dropped += 1

    def finalize(self, now: float) -> None:
        """Close every accounting window at time ``now``."""
        self.end_time = now
        for ch in self.channels:
            ch.finalize(now)

    # -- aggregates ----------------------------------------------------

    @property
    def duration_ns(self) -> float:
        """Observation window length (requires finalize())."""
        if self.end_time is None:
            raise RuntimeError("stats not finalized; call finalize() first")
        return self.end_time - self.start_time

    def mean_packet_latency_ns(self) -> float:
        """Mean delivered-packet latency, in ns."""
        return self.packet_latency.mean

    def mean_message_latency_ns(self) -> float:
        """Mean delivered-message latency, in ns."""
        return self.message_latency.mean

    def message_latency_percentile_ns(self, p: float) -> float:
        """Message-latency percentile over retained samples, in ns."""
        return self.message_latency.percentile(p)

    def delivered_fraction(self) -> float:
        """Delivered over injected bytes — below ~1.0 the network is not
        keeping up with offered load (the always-slowest failure mode)."""
        if self.bytes_injected == 0:
            return 1.0
        return self.bytes_delivered / self.bytes_injected

    def average_utilization(
        self, channels: Optional[Sequence[ChannelStats]] = None
    ) -> float:
        """Mean busy fraction across channels — the paper's *ideal* power."""
        chans = self.channels if channels is None else list(channels)
        if not chans:
            return 0.0
        return left_sum(c.busy_ns for c in chans) / (len(chans) * self.duration_ns)

    def power_fraction(
        self,
        model: ChannelPowerModel,
        channels: Optional[Sequence[ChannelStats]] = None,
        off_power: float = 0.0,
    ) -> float:
        """Network power relative to an always-full-rate baseline.

        This is exactly Figure 8's metric: the per-rate time integrals
        weighted by ``model`` and normalized by every channel spending the
        whole run at the maximum rate (normalized power 1.0).
        """
        chans = self.channels if channels is None else list(channels)
        if not chans:
            return 0.0
        energy = left_sum(c.energy(model, off_power=off_power) for c in chans)
        baseline = len(chans) * self.duration_ns
        return energy / baseline

    def time_at_rate_fractions(
        self, channels: Optional[Sequence[ChannelStats]] = None
    ) -> Dict[Optional[float], float]:
        """Aggregate fraction of channel-time per configured rate
        (Figure 7).  Keys are rates in Gb/s (a lane operating point
        counts at its aggregate rate); ``None`` is powered-off."""
        chans = self.channels if channels is None else list(channels)
        totals: Dict[Optional[float], float] = {}
        grand_total = 0.0
        for ch in chans:
            for rate, t in ch.time_at_rate.items():
                if rate is not None:
                    rate = float(rate)
                totals[rate] = totals.get(rate, 0.0) + t
                grand_total += t
        if grand_total == 0.0:
            return {}
        return {rate: t / grand_total for rate, t in totals.items()}

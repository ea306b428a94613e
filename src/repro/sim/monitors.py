"""Time-series monitor: network power sampled over a run.

The paper reports end-of-run aggregates; understanding *why* a run
behaved as it did usually needs the trajectory.  :class:`PowerMonitor`
samples instantaneous network power under a channel power model,
relative to the full-rate baseline, on a fixed period (as daemon
events, so it never keeps a drained simulation alive).

A monitor only sees a network that actually executes.  A sweep result
served from the persistent run cache never simulates, so a monitor
attached to such a fabric would silently hold zero samples; querying
one now raises a clear error instead (see :func:`_require_observed`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.power.channel_models import ChannelPowerModel, IdealChannelPower

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.channel import Channel
    from repro.sim.fabric import Fabric


def _require_observed(monitor) -> None:
    """Fail loudly when a monitor observed no simulation at all.

    Raises RuntimeError when the monitor has zero samples *and* its
    fabric never fired a single event — the signature of querying a
    monitor whose run was served from the sweep cache (or never
    started) rather than simulated live.  A short run that legitimately
    finished before the first sampling period still has events fired
    and passes through.
    """
    if not monitor.samples and monitor.network.sim.events_fired == 0:
        raise RuntimeError(
            f"{type(monitor).__name__} has no samples and its network "
            "never ran. If this run came from the sweep cache, the "
            "simulation was skipped entirely — re-run with caching "
            "disabled (SweepRunner(cache=None) or --no-cache) or use "
            "run_simulation(spec, telemetry=...) to observe a live run."
        )


class PowerMonitor:
    """Samples instantaneous normalized network power.

    Args:
        network: Fabric to observe.
        model: Channel power model to price configured rates with.
        period_ns: Sampling period.
        channels: Channel subset (defaults to every channel).
        off_power: Normalized power charged to powered-off channels.
    """

    def __init__(self, network: "Fabric",
                 model: Optional[ChannelPowerModel] = None,
                 period_ns: float = 10_000.0,
                 channels: Optional[Sequence["Channel"]] = None,
                 off_power: float = 0.0):
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        self.network = network
        self.model = model if model is not None else IdealChannelPower()
        self.period_ns = period_ns
        self.channels = list(channels if channels is not None
                             else network.all_channels())
        if not self.channels:
            raise ValueError("power monitor needs at least one channel")
        self.off_power = off_power
        self.samples: List[Tuple[float, float]] = []
        network.sim.schedule(period_ns, self._sample, daemon=True)

    def _sample(self) -> None:
        total = 0.0
        for channel in self.channels:
            if channel.is_off:
                total += self.off_power
            else:
                total += self.model.power(channel.rate_gbps)
        self.samples.append((self.network.sim.now, total / len(self.channels)))
        self.network.sim.schedule(self.period_ns, self._sample, daemon=True)

    @property
    def power_fractions(self) -> List[float]:
        """Sampled normalized power values."""
        return [p for _, p in self.samples]

    def peak(self) -> float:
        """Highest sampled power fraction (0.0 with no samples)."""
        _require_observed(self)
        return max(self.power_fractions, default=0.0)


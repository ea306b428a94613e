"""Link data-rate ladders.

Reproduces Table 2 of the paper (InfiniBand's multiple operational data
rates) and defines the generic :class:`RateLadder` the rest of the library
uses: the ordered set of rates a plesiochronous channel may be configured
to, together with halve/double transitions (the paper's heuristic moves
one step at a time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class InfiniBandRate:
    """One row of the paper's Table 2.

    Attributes:
        name: Marketing name, e.g. ``"4x QDR"``.
        lanes: Number of serial lanes in the link.
        gbps_per_lane: Signalling rate of each lane in Gb/s.
    """

    name: str
    lanes: int
    gbps_per_lane: float

    @property
    def gbps(self) -> float:
        """Aggregate link data rate in Gb/s."""
        return self.lanes * self.gbps_per_lane


#: Table 2: InfiniBand support for multiple data rates.
INFINIBAND_RATES: Tuple[InfiniBandRate, ...] = (
    InfiniBandRate("1x SDR", lanes=1, gbps_per_lane=2.5),
    InfiniBandRate("4x SDR", lanes=4, gbps_per_lane=2.5),
    InfiniBandRate("1x DDR", lanes=1, gbps_per_lane=5.0),
    InfiniBandRate("4x DDR", lanes=4, gbps_per_lane=5.0),
    InfiniBandRate("1x QDR", lanes=1, gbps_per_lane=10.0),
    InfiniBandRate("4x QDR", lanes=4, gbps_per_lane=10.0),
)


class RateLadder:
    """An ordered ladder of configurable channel rates (Gb/s).

    The paper's evaluation detunes 40 Gb/s links through
    20, 10, 5 and 2.5 Gb/s — each step halving the rate, "similar to the
    InfiniBand switch in Figure 5".
    """

    def __init__(self, rates_gbps: Sequence[float]):
        if not rates_gbps:
            raise ValueError("rate ladder must contain at least one rate")
        ordered = sorted(set(float(r) for r in rates_gbps))
        if any(r <= 0 for r in ordered):
            raise ValueError(f"rates must be positive, got {rates_gbps}")
        self._rates = tuple(ordered)

    @property
    def rates(self) -> Tuple[float, ...]:
        """All rates, ascending."""
        return self._rates

    @property
    def min_rate(self) -> float:
        """Slowest rate on the ladder, in Gb/s."""
        return self._rates[0]

    @property
    def max_rate(self) -> float:
        """Fastest rate on the ladder, in Gb/s."""
        return self._rates[-1]

    def __contains__(self, rate: float) -> bool:
        return float(rate) in self._rates

    def __len__(self) -> int:
        return len(self._rates)

    def __iter__(self):
        return iter(self._rates)

    def index(self, rate: float) -> int:
        """Index of ``rate`` in the ladder; raises ValueError if absent."""
        return self._rates.index(float(rate))

    def step_down(self, rate: float) -> float:
        """The next lower rate, clamped at the bottom of the ladder."""
        i = self.index(rate)
        return self._rates[max(0, i - 1)]

    def step_up(self, rate: float) -> float:
        """The next higher rate, clamped at the top of the ladder."""
        i = self.index(rate)
        return self._rates[min(len(self._rates) - 1, i + 1)]

    def slowest_covering(self, demand: float, target: float = 1.0) -> float:
        """The slowest rate with ``demand <= target * rate``, else the
        fastest (the paper's Section 3.3 rate rule)."""
        for rate in self._rates:
            if demand <= target * rate:
                return rate
        return self._rates[-1]

    def clamp(self, rate: float) -> float:
        """The closest ladder rate that does not exceed ``rate``.

        Rates below the ladder minimum clamp to the minimum.
        """
        candidates = [r for r in self._rates if r <= rate]
        return candidates[-1] if candidates else self.min_rate

    def __repr__(self) -> str:
        return f"RateLadder({list(self._rates)})"


#: The ladder used throughout the paper's evaluation (Section 4.1):
#: "Links have a maximum bandwidth of 40 Gb/s, and can be detuned to
#: 20, 10, 5 and 2.5 Gb/s."
DEFAULT_RATE_LADDER = RateLadder((2.5, 5.0, 10.0, 20.0, 40.0))

"""Lane-structured link configurations (the real Table 2).

A plesiochronous link is physically ``lanes x per-lane-rate`` (Section
3.1); the scalar ladder used in the paper's evaluation flattens that
structure.  This module models it fully:

- :class:`LaneConfig` — an operating point (lanes, Gb/s per lane).
  InfiniBand's six points include two *distinct* configurations with the
  same aggregate 10 Gb/s (1x QDR and 4x SDR) whose powers differ
  (Figure 5 shows 1x QDR below 4x SDR).
- :class:`LaneLadder` — the ordered set of operating points.
- :class:`ReactivationModel` — Section 3.1's asymmetric transition
  costs: "when the link rate changes ... the chip simply changes the
  receiving CDR bandwidth and re-locks the CDR ... ~50ns-100ns", while
  "adding and removing lanes is a relatively slower process ... within a
  few microseconds".  Section 5.2 proposes heuristics that "take into
  account the difference in link resynchronization latency"; the
  lane-aware controller uses this model for exactly that.
- :class:`LaneModePower` — per-configuration normalized power, pricing
  1x QDR and 4x SDR differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.units import US


@dataclass(frozen=True, order=True)
class LaneConfig:
    """One link operating point.  Ordered by (aggregate rate, lanes)."""

    gbps_per_lane: float
    lanes: int

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError(f"need at least one lane, got {self.lanes}")
        if self.gbps_per_lane <= 0:
            raise ValueError(
                f"lane rate must be positive, got {self.gbps_per_lane}")

    @property
    def gbps(self) -> float:
        """Aggregate data rate in Gb/s (lanes x per-lane rate)."""
        return self.lanes * self.gbps_per_lane

    def __float__(self) -> float:
        """The aggregate rate, so scalar-rate power models and the
        time-at-rate histogram price and bin an operating point by it."""
        return self.gbps

    def __str__(self) -> str:
        return f"{self.lanes}x{self.gbps_per_lane:g}G"

    # Order by aggregate rate first, then lane count.
    def _sort_key(self) -> Tuple[float, int]:
        return (self.gbps, self.lanes)


#: InfiniBand's operating points (Table 2), ascending by aggregate rate;
#: the 10 Gb/s tie (1x QDR vs 4x SDR) is broken toward fewer lanes.
INFINIBAND_LANE_LADDER_CONFIGS: Tuple[LaneConfig, ...] = (
    LaneConfig(gbps_per_lane=2.5, lanes=1),    # 1x SDR, 2.5 Gb/s
    LaneConfig(gbps_per_lane=5.0, lanes=1),    # 1x DDR, 5 Gb/s
    LaneConfig(gbps_per_lane=10.0, lanes=1),   # 1x QDR, 10 Gb/s
    LaneConfig(gbps_per_lane=2.5, lanes=4),    # 4x SDR, 10 Gb/s
    LaneConfig(gbps_per_lane=5.0, lanes=4),    # 4x DDR, 20 Gb/s
    LaneConfig(gbps_per_lane=10.0, lanes=4),   # 4x QDR, 40 Gb/s
)


class LaneLadder:
    """An ordered ladder of lane configurations."""

    def __init__(self, configs: Sequence[LaneConfig]):
        if not configs:
            raise ValueError("lane ladder needs at least one config")
        self._configs = tuple(sorted(set(configs),
                                     key=LaneConfig._sort_key))

    @property
    def configs(self) -> Tuple[LaneConfig, ...]:
        """All operating points, ascending by (rate, lanes)."""
        return self._configs

    @property
    def max_config(self) -> LaneConfig:
        """Fastest operating point on the ladder."""
        return self._configs[-1]

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self):
        return iter(self._configs)

    def __contains__(self, config: LaneConfig) -> bool:
        return config in self._configs

    def index(self, config: LaneConfig) -> int:
        """Position of a configuration on the ladder."""
        return self._configs.index(config)

    def step_down(self, config: LaneConfig) -> LaneConfig:
        """The next lower ladder entry, clamped at the bottom."""
        return self._configs[max(0, self.index(config) - 1)]

    def step_up(self, config: LaneConfig) -> LaneConfig:
        """The next higher ladder entry, clamped at the top."""
        return self._configs[min(len(self._configs) - 1,
                                 self.index(config) + 1)]

    def _cheapest_at(self, gbps: float) -> LaneConfig:
        """The preferred config at an aggregate rate: fewest lanes.

        Narrow-fast beats wide-slow in power (Figure 5: 1x QDR at 0.52
        vs 4x SDR at 0.57 for the same 10 Gb/s).
        """
        candidates = [c for c in self._configs if c.gbps == gbps]
        return min(candidates, key=lambda c: c.lanes)

    def step_down_bandwidth(self, config: LaneConfig) -> LaneConfig:
        """Cheapest config at the next *lower* aggregate rate (clamped).

        Skips same-rate siblings, so a rate-halving never burns a
        transition without shedding bandwidth.
        """
        lower = [r for r in self.scalar_rates() if r < config.gbps]
        if not lower:
            return self._cheapest_at(self.scalar_rates()[0]) \
                if config.lanes > self._cheapest_at(config.gbps).lanes \
                else config
        return self._cheapest_at(lower[-1])

    def step_up_bandwidth(self, config: LaneConfig) -> LaneConfig:
        """Cheapest config at the next *higher* aggregate rate (clamped)."""
        higher = [r for r in self.scalar_rates() if r > config.gbps]
        if not higher:
            return config
        return self._cheapest_at(higher[0])

    def scalar_rates(self) -> Tuple[float, ...]:
        """Distinct aggregate rates, ascending, for channel serialization."""
        return tuple(sorted({c.gbps for c in self._configs}))


INFINIBAND_LANE_LADDER = LaneLadder(INFINIBAND_LANE_LADDER_CONFIGS)


@dataclass(frozen=True)
class ReactivationModel:
    """Transition latency between two lane configurations.

    Attributes:
        clock_change_ns: CDR re-lock when only the per-lane rate changes
            (the paper: 50-100 ns typical-to-worst; we default to the
            conservative end).
        lane_change_ns: Adding/removing lanes ("could be optimized
            within a few microseconds").
    """

    clock_change_ns: float = 100.0
    lane_change_ns: float = 2.0 * US

    def latency_ns(self, old: LaneConfig, new: LaneConfig) -> float:
        """Cost of moving from ``old`` to ``new`` (0 if identical).

        A transition changing both lanes and clock pays the slower of
        the two processes (they proceed concurrently during re-training).
        """
        if old == new:
            return 0.0
        cost = 0.0
        if old.gbps_per_lane != new.gbps_per_lane:
            cost = max(cost, self.clock_change_ns)
        if old.lanes != new.lanes:
            cost = max(cost, self.lane_change_ns)
        return cost


class LaneModePower:
    """Normalized power per lane configuration.

    Prices each configuration from the Figure 5 digitization, giving 1x
    QDR (0.52) an edge over 4x SDR (0.57) at the same 10 Gb/s — the
    reason a lane-aware policy prefers narrow-fast over wide-slow.
    """

    _DEFAULT: Dict[LaneConfig, float] = {
        LaneConfig(2.5, 1): 0.42,
        LaneConfig(5.0, 1): 0.46,
        LaneConfig(10.0, 1): 0.52,
        LaneConfig(2.5, 4): 0.57,
        LaneConfig(5.0, 4): 0.72,
        LaneConfig(10.0, 4): 1.00,
    }

    def __init__(self, table: Mapping[LaneConfig, float] = None):
        self._table = dict(self._DEFAULT if table is None else table)

    def power(self, key) -> float:
        """Normalized power of a configuration.

        Also accepts plain float rates (for channels still accounted by
        scalar rate in the same run), priced at the cheapest
        configuration with that aggregate rate.
        """
        if isinstance(key, LaneConfig):
            return self._table[key]
        rate = float(key)
        candidates = [p for c, p in self._table.items() if c.gbps == rate]
        if not candidates:
            raise KeyError(f"no lane configuration with {rate} Gb/s")
        return min(candidates)

"""The folded-Clos (fat tree) comparison topology.

Section 2.2 builds the comparison folded-Clos from the same 36-port
switch chips, aggregated into 324-port non-blocking router chassis of 27
chips each for stages 2 and 3 of a 3-stage network:

    S_stage3 = ceil(N / 324)        S_stage2 = ceil(N / (324/2))
    S_clos   = 27 * (S_stage3 + S_stage2)

For N = 32k this yields 8,235 chips, of which only 8,192 carry used ports
(the exact, unrounded requirement is ``27 * (N/324 + N/162) = N/4``); the
paper's power analysis counts only the used chips.

The link-media split is under-specified in the paper; we document the
model that reproduces its Table 1 numbers exactly: host links are
electrical (N), the two inter-tier levels are optical (2N), and the folded
spine chassis carry N/2 short electrical backplane-class links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.topology.base import Topology
from repro.topology.parts import PartCount


@dataclass(frozen=True)
class ClosChassis:
    """A non-blocking multi-chip router chassis built from small chips.

    The paper composes 27 36-port chips into a 324-port chassis (18 leaf
    chips with half their ports external, 9 spine chips fully internal).
    """

    chip_ports: int = 36
    chips: int = 27

    @property
    def external_ports(self) -> int:
        """Usable external ports: 18 leaf chips x 18 external ports."""
        leaf_chips = self.chips * 2 // 3
        return leaf_chips * self.chip_ports // 2

    def __post_init__(self) -> None:
        if self.chip_ports < 2 or self.chip_ports % 2:
            raise ValueError("chips need an even, >=2 port count")
        if self.chips < 3 or self.chips % 3:
            raise ValueError("chassis chip count must be a positive multiple of 3")


class FoldedClos(Topology):
    """A 3-stage folded-Clos with no over-subscription.

    Args:
        num_hosts: Endpoint count (the paper uses 32k = 32,768).
        chassis: The multi-chip chassis stages 2 and 3 are built from.
    """

    def __init__(self, num_hosts: int, chassis: ClosChassis = ClosChassis()):
        if num_hosts < 1:
            raise ValueError(f"need at least one host, got {num_hosts}")
        self._n = num_hosts
        self._chassis = chassis

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        return self._n

    @property
    def stage3_chassis(self) -> int:
        """Top-stage chassis: ``ceil(N / 324)``."""
        return math.ceil(self._n / self._chassis.external_ports)

    @property
    def stage2_chassis(self) -> int:
        """Middle-stage chassis: ``ceil(N / (324/2))`` — half the ports
        face hosts, half face stage 3."""
        return math.ceil(self._n / (self._chassis.external_ports / 2))

    @property
    def total_chips(self) -> int:
        """All chips cabled in, including chassis-rounding remainder."""
        return self._chassis.chips * (self.stage3_chassis + self.stage2_chassis)

    @property
    def powered_chips(self) -> int:
        """Chips with used ports: the exact unrounded requirement,
        ``27 * (N/324 + N/162)``, which simplifies to ``N * chips_per
        chassis * 3 / (2 * chassis_ports)`` (= N/4 for the paper's build).
        """
        ports = self._chassis.external_ports
        exact = self._chassis.chips * (self._n / ports + 2 * self._n / ports)
        return min(self.total_chips, math.ceil(exact))

    @property
    def num_switches(self) -> int:
        """Number of switch chips."""
        return self.powered_chips

    def part_counts(self) -> PartCount:
        """Bill of materials; see module docstring for the media model."""
        return PartCount(
            switch_chips=self.total_chips,
            switch_chips_powered=self.powered_chips,
            electrical_links=self._n + self._n // 2,
            optical_links=2 * self._n,
        )

    def bisection_bandwidth_gbps(self, link_rate_gbps: float) -> float:
        """Non-blocking: full ``num_hosts * rate / 2``."""
        return self._n * link_rate_gbps / 2.0

    def __repr__(self) -> str:
        return (f"FoldedClos({self._n} hosts, "
                f"{self.stage2_chassis}+{self.stage3_chassis} chassis, "
                f"{self.total_chips} chips)")

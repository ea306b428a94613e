"""Common topology abstractions.

A :class:`Topology` answers two kinds of questions:

- **Analytic** (Section 2.2): how many hosts, chips and links does a
  build of this topology need, and what bisection bandwidth does it
  offer?  These drive the Table 1 / Figure 1 comparisons.
- **Structural** (Section 4): the switch-to-switch connectivity graph the
  event-driven simulator instantiates.  Only topologies we simulate
  (the FBFLY family) implement the structural interface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

from repro.topology.parts import PartCount

#: A switch coordinate: one base-k digit per inter-switch dimension.
Coordinate = Tuple[int, ...]


@dataclass(frozen=True)
class SwitchLink:
    """A bidirectional inter-switch link, identified by switch indices.

    The link carries two independently routable unidirectional channels
    (Section 3.3.1); the simulator models each direction separately.

    Attributes:
        src: Lower switch index of the pair.
        dst: Higher switch index of the pair.
        dimension: The FBFLY dimension the link travels in (0-based over
            inter-switch dimensions), or -1 when not applicable.
    """

    src: int
    dst: int
    dimension: int = -1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-link at switch {self.src}")

    @property
    def endpoints(self) -> Tuple[int, int]:
        """The (src, dst) switch pair."""
        return (self.src, self.dst)


class Topology(abc.ABC):
    """Analytic interface shared by all topologies."""

    @property
    @abc.abstractmethod
    def num_hosts(self) -> int:
        """Number of host (server) endpoints."""

    @property
    @abc.abstractmethod
    def num_switches(self) -> int:
        """Number of switch chips carrying traffic."""

    @abc.abstractmethod
    def part_counts(self) -> PartCount:
        """Bill of materials for this build."""

    @abc.abstractmethod
    def bisection_bandwidth_gbps(self, link_rate_gbps: float) -> float:
        """Worst-case host bandwidth across the network bisection.

        Defined as the aggregate injection bandwidth the network can carry
        across its minimum bisection under uniform traffic: for a
        non-oversubscribed network this is ``num_hosts * rate / 2``
        (the paper's 32k-host, 40 Gb/s builds both report 655 Tb/s).
        """

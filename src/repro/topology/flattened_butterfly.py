"""The flattened butterfly (FBFLY) k-ary n-flat topology.

A k-ary n-flat interconnects ``k**n`` endpoints with ``k**(n-1)`` switches
arranged in ``n-1`` inter-switch dimensions; within every dimension all
switches sharing the other coordinates are *fully connected* (unlike a
torus, where each dimension is a ring).  With a concentration of ``c``
hosts per switch the network scales to ``c * k**(n-1)`` endpoints and can
be over-subscribed by choosing ``c > k`` (Section 2.1.1, Figure 3).

Packets traverse the FBFLY like a rook moves on a chessboard: each hop
corrects one coordinate of the destination switch, in any order — which
is what gives the minimal adaptive routing its path diversity.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.topology.base import Coordinate, SwitchLink, Topology
from repro.topology.parts import PartCount


class FlattenedButterfly(Topology):
    """A (c, k, n) flattened butterfly: k-ary n-flat with c hosts/switch.

    Args:
        k: Radix of each dimension (switches per fully connected group).
        n: Number of endpoint dimensions; the network has ``n - 1``
            inter-switch dimensions.  ``n == 1`` is a single switch.
        c: Concentration — hosts per switch.  Defaults to ``k`` (the
            non-over-subscribed build used throughout the evaluation).
    """

    def __init__(self, k: int, n: int, c: Optional[int] = None):
        if k < 2:
            raise ValueError(f"radix k must be >= 2, got {k}")
        if n < 1:
            raise ValueError(f"dimensions n must be >= 1, got {n}")
        self._k = k
        self._n = n
        self._c = k if c is None else c
        if self._c < 1:
            raise ValueError(f"concentration c must be >= 1, got {self._c}")
        self._num_switches = k ** (n - 1)

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Radix of each dimension."""
        return self._k

    @property
    def n(self) -> int:
        """Number of endpoint dimensions."""
        return self._n

    @property
    def c(self) -> int:
        """Concentration: hosts per switch."""
        return self._c

    @property
    def dimensions(self) -> int:
        """Number of inter-switch dimensions (``n - 1``)."""
        return self._n - 1

    @property
    def num_switches(self) -> int:
        """Number of switch chips."""
        return self._num_switches

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        return self._c * self._num_switches

    @property
    def ports_per_switch(self) -> int:
        """Ports required per switch: ``c + (k-1)(n-1)`` (Section 2.2)."""
        return self._c + (self._k - 1) * (self._n - 1)

    @property
    def oversubscription(self) -> float:
        """Ratio of host injection to network bandwidth (c : k)."""
        return self._c / self._k

    def __repr__(self) -> str:
        return (f"FlattenedButterfly(k={self._k}, n={self._n}, c={self._c}: "
                f"{self.num_hosts} hosts, {self.num_switches} switches, "
                f"{self.ports_per_switch} ports/switch)")

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------

    def coordinate(self, switch: int) -> Coordinate:
        """Base-k coordinate of a switch, least-significant dimension first."""
        self._check_switch(switch)
        digits = []
        for _ in range(self.dimensions):
            digits.append(switch % self._k)
            switch //= self._k
        return tuple(digits)

    def switch_index(self, coord: Sequence[int]) -> int:
        """Inverse of :meth:`coordinate`."""
        if len(coord) != self.dimensions:
            raise ValueError(
                f"coordinate must have {self.dimensions} digits, got {coord}"
            )
        index = 0
        for dim in reversed(range(self.dimensions)):
            digit = coord[dim]
            if not 0 <= digit < self._k:
                raise ValueError(f"digit {digit} out of range for k={self._k}")
            index = index * self._k + digit
        return index

    def host_switch(self, host: int) -> int:
        """Switch a host is attached to."""
        self._check_host(host)
        return host // self._c

    def hosts_of_switch(self, switch: int) -> range:
        """Host ids attached to ``switch``."""
        self._check_switch(switch)
        return range(switch * self._c, (switch + 1) * self._c)

    def peer_in_dimension(self, switch: int, dim: int, digit: int) -> int:
        """The switch reached from ``switch`` by setting dimension ``dim``
        to ``digit`` (a single FBFLY hop)."""
        coord = list(self.coordinate(switch))
        if not 0 <= dim < self.dimensions:
            raise ValueError(f"dimension {dim} out of range")
        coord[dim] = digit
        return self.switch_index(coord)

    def differing_dimensions(self, src: int, dst: int) -> Tuple[int, ...]:
        """Dimensions in which two switches' coordinates differ.

        These are exactly the minimal-route hop choices from ``src``
        toward ``dst``; an empty tuple means same switch.
        """
        a, b = self.coordinate(src), self.coordinate(dst)
        return tuple(d for d in range(self.dimensions) if a[d] != b[d])

    def minimal_hops(self, src: int, dst: int) -> int:
        """Minimal switch-to-switch hop count."""
        return len(self.differing_dimensions(src, dst))

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------

    def neighbors(self, switch: int) -> List[Tuple[int, int]]:
        """All inter-switch neighbors as (dimension, switch) pairs."""
        coord = self.coordinate(switch)
        result = []
        for dim in range(self.dimensions):
            for digit in range(self._k):
                if digit != coord[dim]:
                    result.append((dim, self.peer_in_dimension(switch, dim, digit)))
        return result

    def inter_switch_links(self) -> Iterator[SwitchLink]:
        """Every bidirectional inter-switch link, each pair yielded once."""
        for switch in range(self._num_switches):
            for dim, peer in self.neighbors(switch):
                if switch < peer:
                    yield SwitchLink(src=switch, dst=peer, dimension=dim)

    @property
    def num_inter_switch_links(self) -> int:
        """``S * (k-1) * (n-1) / 2`` bidirectional links."""
        return self._num_switches * (self._k - 1) * self.dimensions // 2

    # ------------------------------------------------------------------
    # Parts and bandwidth (Section 2.2)
    # ------------------------------------------------------------------

    def part_counts(self) -> PartCount:
        """Bill of materials under the paper's packaging model.

        Dimension 0 interconnects switches in close physical proximity,
        so its links — and all host links — are short electrical cables:
        ``e = (k - 1) + c`` electrical ports per switch.  Links in the
        remaining dimensions are optical.
        """
        links_per_dim = self._num_switches * (self._k - 1) // 2
        electrical_dims = min(1, self.dimensions)
        electrical = self.num_hosts + electrical_dims * links_per_dim
        optical = (self.dimensions - electrical_dims) * links_per_dim
        return PartCount(
            switch_chips=self._num_switches,
            switch_chips_powered=self._num_switches,
            electrical_links=electrical,
            optical_links=optical,
        )

    @property
    def electrical_port_fraction(self) -> float:
        """Fraction of switch ports on electrical links:
        ``((k-1) + c) / (c + (k-1)(n-1))`` — about 42% for the paper's
        8-ary 5-flat."""
        if self.dimensions == 0:
            return 1.0
        return ((self._k - 1) + self._c) / self.ports_per_switch

    def bisection_bandwidth_gbps(self, link_rate_gbps: float) -> float:
        """Uniform-traffic injection bandwidth across the worst bisection.

        For ``c <= k`` the FBFLY is non-blocking for uniform traffic and
        the bisection equals ``num_hosts * rate / 2``; over-subscription
        scales it down by ``k / c``.
        """
        scale = min(1.0, self._k / self._c)
        return self.num_hosts * link_rate_gbps * scale / 2.0

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def _check_switch(self, switch: int) -> None:
        if not 0 <= switch < self._num_switches:
            raise ValueError(
                f"switch {switch} out of range 0..{self._num_switches - 1}"
            )

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range 0..{self.num_hosts - 1}")

"""A simulatable three-level fat tree (folded Clos).

Section 2.2's folded-Clos is analysed at the chassis level
(:mod:`repro.topology.folded_clos`); this module provides the
*simulatable* counterpart — the classic k-port three-level fat tree
[Al-Fares et al., SIGCOMM'08] the paper cites — so the rate-scaling
mechanisms can be evaluated on the competing topology too (Section 3.2:
"Exploiting links' dynamic range is possible with other topologies,
such as a folded-Clos").

Structure for even radix ``r``:

- ``r`` pods; each pod has ``r/2`` edge switches and ``r/2``
  aggregation switches;
- each edge switch connects ``r/2`` hosts down and all ``r/2``
  aggregation switches in its pod up;
- ``(r/2)**2`` core switches; core switch ``c`` connects to one
  aggregation switch in every pod (aggregation ``c // (r/2)``);
- total hosts ``r**3 / 4``.

Switch ids are assigned edge-first, then aggregation, then core, so the
simulator can keep using a flat switch array.
"""

from __future__ import annotations

from typing import Iterator

from repro.topology.base import SwitchLink
from repro.topology.parts import PartCount


class FatTree:
    """A three-level fat tree built from ``radix``-port switches.

    Args:
        radix: Switch port count; must be even and >= 2.
    """

    def __init__(self, radix: int):
        if radix < 2 or radix % 2:
            raise ValueError(f"radix must be even and >= 2, got {radix}")
        self._r = radix
        self._half = radix // 2

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def radix(self) -> int:
        """Switch port count."""
        return self._r

    @property
    def pods(self) -> int:
        """Number of pods (= radix)."""
        return self._r

    @property
    def hosts_per_edge(self) -> int:
        """Hosts attached to each edge switch (r/2)."""
        return self._half

    @property
    def edges_per_pod(self) -> int:
        """Edge switches per pod (r/2)."""
        return self._half

    @property
    def aggs_per_pod(self) -> int:
        """Aggregation switches per pod (r/2)."""
        return self._half

    @property
    def num_edge(self) -> int:
        """Total edge switches."""
        return self.pods * self.edges_per_pod

    @property
    def num_agg(self) -> int:
        """Total aggregation switches."""
        return self.pods * self.aggs_per_pod

    @property
    def num_core(self) -> int:
        """Total core switches ((r/2)^2)."""
        return self._half * self._half

    @property
    def num_switches(self) -> int:
        """Number of switch chips."""
        return self.num_edge + self.num_agg + self.num_core

    @property
    def num_hosts(self) -> int:
        """Number of host endpoints."""
        return self.num_edge * self.hosts_per_edge   # == r**3 / 4

    def __repr__(self) -> str:
        return (f"FatTree(radix={self._r}: {self.num_hosts} hosts, "
                f"{self.num_switches} switches)")

    # ------------------------------------------------------------------
    # Switch id layout: [edges][aggs][cores]
    # ------------------------------------------------------------------

    def edge_index(self, pod: int, slot: int) -> int:
        """Switch id of edge ``slot`` in ``pod``."""
        self._check(pod, self.pods, "pod")
        self._check(slot, self.edges_per_pod, "edge slot")
        return pod * self.edges_per_pod + slot

    def agg_index(self, pod: int, slot: int) -> int:
        """Switch id of aggregation ``slot`` in ``pod``."""
        self._check(pod, self.pods, "pod")
        self._check(slot, self.aggs_per_pod, "agg slot")
        return self.num_edge + pod * self.aggs_per_pod + slot

    def core_index(self, core: int) -> int:
        """Switch id of core switch ``core``."""
        self._check(core, self.num_core, "core")
        return self.num_edge + self.num_agg + core

    def is_edge(self, switch: int) -> bool:
        """True for edge-layer switch ids."""
        return 0 <= switch < self.num_edge

    def is_agg(self, switch: int) -> bool:
        """True for aggregation-layer switch ids."""
        return self.num_edge <= switch < self.num_edge + self.num_agg

    def is_core(self, switch: int) -> bool:
        """True for core-layer switch ids."""
        return (self.num_edge + self.num_agg <= switch
                < self.num_switches)

    def pod_of(self, switch: int) -> int:
        """Pod of an edge or aggregation switch."""
        if self.is_edge(switch):
            return switch // self.edges_per_pod
        if self.is_agg(switch):
            return (switch - self.num_edge) // self.aggs_per_pod
        raise ValueError(f"core switch {switch} belongs to no pod")

    def agg_slot_of_core(self, core_switch: int) -> int:
        """Which per-pod aggregation slot a core switch attaches to."""
        core = core_switch - self.num_edge - self.num_agg
        if not 0 <= core < self.num_core:
            raise ValueError(f"switch {core_switch} is not a core switch")
        return core // self._half

    # ------------------------------------------------------------------
    # Host attachment
    # ------------------------------------------------------------------

    def host_switch(self, host: int) -> int:
        """Edge switch a host attaches to."""
        if not 0 <= host < self.num_hosts:
            raise ValueError(
                f"host {host} out of range 0..{self.num_hosts - 1}")
        return host // self.hosts_per_edge

    def hosts_of_edge(self, edge: int) -> range:
        """Host ids attached to an edge switch."""
        if not self.is_edge(edge):
            raise ValueError(f"switch {edge} is not an edge switch")
        return range(edge * self.hosts_per_edge,
                     (edge + 1) * self.hosts_per_edge)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------

    def edge_agg_links(self) -> Iterator[SwitchLink]:
        """Every (edge, aggregation) link — full bipartite per pod."""
        for pod in range(self.pods):
            for e in range(self.edges_per_pod):
                for a in range(self.aggs_per_pod):
                    yield SwitchLink(src=self.edge_index(pod, e),
                                     dst=self.agg_index(pod, a))

    def agg_core_links(self) -> Iterator[SwitchLink]:
        """Every (aggregation, core) link."""
        for core in range(self.num_core):
            slot = core // self._half
            for pod in range(self.pods):
                yield SwitchLink(src=self.agg_index(pod, slot),
                                 dst=self.core_index(core))

    def inter_switch_links(self) -> Iterator[SwitchLink]:
        """Every bidirectional inter-switch link, once each."""
        yield from self.edge_agg_links()
        yield from self.agg_core_links()

    @property
    def num_inter_switch_links(self) -> int:
        """Count of bidirectional inter-switch links."""
        edge_agg = self.pods * self.edges_per_pod * self.aggs_per_pod
        agg_core = self.num_core * self.pods
        return edge_agg + agg_core

    def part_counts(self) -> PartCount:
        """Simple media model: host and intra-pod links electrical,
        pod-to-core links optical."""
        edge_agg = self.pods * self.edges_per_pod * self.aggs_per_pod
        agg_core = self.num_core * self.pods
        return PartCount(
            switch_chips=self.num_switches,
            switch_chips_powered=self.num_switches,
            electrical_links=self.num_hosts + edge_agg,
            optical_links=agg_core,
        )

    def bisection_bandwidth_gbps(self, link_rate_gbps: float) -> float:
        """Non-blocking: ``num_hosts * rate / 2``."""
        return self.num_hosts * link_rate_gbps / 2.0

    @staticmethod
    def _check(value: int, bound: int, label: str) -> None:
        if not 0 <= value < bound:
            raise ValueError(f"{label} {value} out of range 0..{bound - 1}")
